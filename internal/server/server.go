// Package server is the network serving layer over the generalized
// engine: a TCP listener that speaks internal/wire and gives every
// connection its own SQL session, so scan knobs set with SET stay
// per-session the way PostgreSQL GUCs do.
//
// Connections pass admission control before they are served: a bounded
// pool of connection slots (MaxActive) plus a bounded wait queue
// (QueueDepth). When both are full the connection is rejected with a
// clean wire-level error (wire.CodeRejected) instead of hanging or
// spawning an unbounded goroutine — backpressure is explicit. Each
// query runs under a per-request timeout; a timed-out connection is
// closed, and its slot is released only when the abandoned statement
// actually finishes, so the worker bound stays honest.
//
// The fixed cost of a statement is kept small. A connection reads and
// writes through 4 KiB buffers and flushes once per response, so every
// response leaves in one Write. The statement runs on the connection's
// own goroutine, and the timeout is delivered by a per-connection timer
// whose callback writes the timeout error when it beats the statement.
//
// Shutdown drains gracefully: stop accepting, let in-flight statements
// finish, unblock idle readers, then close every connection.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/batch"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/vec"
	"vecstudy/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// MaxActive bounds concurrently served connections (the worker
	// pool). 0 means 64.
	MaxActive int
	// QueueDepth bounds connections waiting for a slot beyond
	// MaxActive. 0 means 128. Arrivals beyond MaxActive+QueueDepth are
	// rejected with wire.CodeRejected.
	QueueDepth int
	// QueueWait caps how long a queued connection waits for a slot
	// before it is rejected. 0 means 5s.
	QueueWait time.Duration
	// QueryTimeout caps one statement's execution. 0 means 30s.
	QueryTimeout time.Duration
}

func (c *Config) defaults() {
	if c.MaxActive <= 0 {
		c.MaxActive = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
}

// Session executes one connection's statements. sql.Session implements
// it for the single-node database; the cluster router implements it
// with scatter-gather sessions. Sessions are single-threaded: the
// server never issues a second Execute before the first returns.
type Session interface {
	Execute(text string) (*sql.Result, error)
}

// Backend supplies per-connection sessions. It is the seam that lets
// the same serving layer (admission control, timeouts, drain, stats)
// front either one database or a shard router.
type Backend interface {
	NewSession() Session
}

// StatsRower is an optional Backend extension: backends that carry
// their own counters (the cluster router's fanout/retry/failover/
// degraded tallies) contribute extra rows to SHOW server_stats.
type StatsRower interface {
	StatsRows() [][]any
}

// dbBackend adapts a single database to Backend. Every session funnels
// through one shared query coalescer, so concurrently arriving kNN
// queries can execute as multi-query probes (SET batch_window opts a
// session in; see internal/batch).
type dbBackend struct {
	d  *db.DB
	co *batch.Coalescer
}

func (b dbBackend) NewSession() Session { return batch.NewSession(sql.NewSession(b.d), b.co) }

// StatsRows contributes the coalescer's counters and the dynamic-data
// counters (dead tuples awaiting vacuum, delete/update/vacuum tallies)
// to SHOW server_stats.
func (b dbBackend) StatsRows() [][]any {
	rows := b.co.StatsRows()
	var dead int64
	for _, tm := range b.d.Catalog().Tables() {
		if tbl, err := b.d.Table(tm.Name); err == nil {
			dead += tbl.NDead()
		}
	}
	ms := b.d.Mutations()
	return append(rows,
		[]any{"kernel_default", vec.Default().Name()},
		[]any{"kernels_registered", strings.Join(vec.RegisteredKernelNames(), ",")},
		[]any{"dead_tuples", dead},
		[]any{"tuples_deleted", ms.TuplesDeleted},
		[]any{"tuples_updated", ms.TuplesUpdated},
		[]any{"vacuum_runs", ms.VacuumRuns},
		[]any{"vacuum_dead_reclaimed", ms.DeadReclaimed},
		[]any{"index_repairs", ms.IndexRepairs},
	)
}

// Server serves a backend over TCP.
type Server struct {
	backend Backend
	cfg     Config
	stats   stats

	lis      net.Listener
	slots    chan struct{} // capacity MaxActive; holding a token = being served
	draining chan struct{} // closed when Shutdown begins
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// execDelay is a test hook: a pause (in nanoseconds) injected
	// before each statement so timeout and drain paths can be
	// exercised deterministically.
	execDelay atomic.Int64
}

// New wraps an open database in a server. The database is shared: DDL
// and data are visible to every connection; only SET knobs are
// per-session.
func New(d *db.DB, cfg Config) *Server {
	return NewWithBackend(dbBackend{d: d, co: batch.NewCoalescer()}, cfg)
}

// NewWithBackend wraps any Backend in a server — the cluster router
// mounts here so clients speak the identical wire protocol to a router
// as to a single server.
func NewWithBackend(b Backend, cfg Config) *Server {
	cfg.defaults()
	return &Server{
		backend:  b,
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxActive),
		draining: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Start binds addr (host:port; port 0 picks a free port) and begins
// accepting connections in the background.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatal accept error: stop.
			return
		}
		s.stats.accepted.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle runs one connection: admission, then the session loop. The
// slot is released only after the session's last statement returned —
// a timed-out statement runs to its end on this goroutine.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	if !s.admit(conn) {
		conn.Close()
		return
	}
	s.track(conn, true)
	s.stats.active.Add(1)
	s.serveSession(conn)
	s.track(conn, false)
	s.stats.active.Add(-1)
	conn.Close()
	<-s.slots
}

// admit applies admission control. It returns true once the connection
// holds a slot; otherwise it writes a wire-level rejection and returns
// false.
func (s *Server) admit(conn net.Conn) bool {
	select {
	case <-s.draining:
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeShutdown, "server is shutting down")
		return false
	default:
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	// No free slot: try to queue.
	if n := s.stats.queued.Add(1); n > int64(s.cfg.QueueDepth) {
		s.stats.queued.Add(-1)
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeRejected,
			fmt.Sprintf("admission queue full (%d active, %d queued)", s.cfg.MaxActive, s.cfg.QueueDepth))
		return false
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		s.stats.queued.Add(-1)
		return true
	case <-timer.C:
		s.stats.queued.Add(-1)
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeRejected, "timed out waiting for a connection slot")
		return false
	case <-s.draining:
		s.stats.queued.Add(-1)
		s.stats.rejected.Add(1)
		s.reject(conn, wire.CodeShutdown, "server is shutting down")
		return false
	}
}

// reject answers a connection that never reached a session: one error
// frame, in one Write.
func (s *Server) reject(conn net.Conn, code, msg string) {
	frame, err := wire.AppendFrame(nil, wire.TError, wire.EncodeError(code, msg))
	if err != nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(rejectWriteTimeout))
	conn.Write(frame)
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// Connection write deadlines: a response gets respondWriteTimeout, an
// error that ends or refuses a session rejectWriteTimeout, so a client
// that stops reading cannot hold a handler forever.
const (
	respondWriteTimeout = 30 * time.Second
	rejectWriteTimeout  = 2 * time.Second
)

// Statement states of a servedConn. The handler moves idle → running before
// it runs a statement and running → idle when the statement returns;
// the timeout callback moves running → timedOut. Whichever of the two
// moves running away first owns the response.
const (
	stmtIdle int32 = iota
	stmtRunning
	stmtTimedOut
)

// servedConn is one admitted connection. Reads and writes go through 4 KiB
// buffers: a frame that arrives whole is taken in with one Read, and
// every response is flushed once, so it leaves in one Write when it
// fits the buffer (a k = 10 answer is ~250 bytes).
type servedConn struct {
	s    *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess Session

	state atomic.Int32
	// timer delivers the query timeout (onTimeout); it is created by
	// the first statement and re-armed with Reset by each one after.
	timer *time.Timer
	// fired receives once per timer fire, when onTimeout is done with
	// the writer and the connection.
	fired chan struct{}
}

// serveSession runs the frame loop for one admitted connection. Each
// statement runs on this goroutine; it returns when the client leaves,
// drain begins, or a statement timed out (after that statement
// returned).
func (s *Server) serveSession(conn net.Conn) {
	c := &servedConn{
		s:     s,
		nc:    conn,
		br:    bufio.NewReader(conn),
		bw:    bufio.NewWriter(conn),
		sess:  s.backend.NewSession(),
		fired: make(chan struct{}, 1),
	}
	for {
		select {
		case <-s.draining:
			c.writeError(wire.CodeShutdown, "server is shutting down")
			return
		default:
		}
		t, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			// Client went away or drain unblocked an idle read.
			return
		}
		switch t {
		case wire.TTerminate:
			return
		case wire.TPing:
			wire.WriteFrame(c.bw, wire.TDone, wire.EncodeDone(0))
			if c.bw.Flush() != nil {
				return
			}
		case wire.TQuery:
			if !c.runQuery(wire.DecodeQuery(payload)) {
				return
			}
		default:
			wire.WriteFrame(c.bw, wire.TError,
				wire.EncodeError(wire.CodeError, fmt.Sprintf("unexpected frame type %q", byte(t))))
			c.bw.Flush()
			return
		}
	}
}

// runQuery executes one statement under the query timeout and writes
// its response. It reports false when the timeout fired first: the
// client then has its CodeTimeout, the connection is closed, and the
// session ends — only now that the abandoned statement returned, so
// the slot it holds stays honest.
func (c *servedConn) runQuery(text string) bool {
	if res, handled := c.s.utilityQuery(text); handled {
		c.respond(res, nil, 0)
		return true
	}
	start := time.Now()
	c.state.Store(stmtRunning)
	if c.timer == nil {
		c.timer = time.AfterFunc(c.s.cfg.QueryTimeout, c.onTimeout)
	} else {
		c.timer.Reset(c.s.cfg.QueryTimeout)
	}
	if d := c.s.execDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	res, err := c.sess.Execute(text)
	inTime := c.state.CompareAndSwap(stmtRunning, stmtIdle)
	if !c.timer.Stop() {
		// The timer fired, whether or not it won: wait until onTimeout
		// is done with the writer and the connection. This also keeps a
		// late fire from timing out the next statement.
		<-c.fired
	}
	if !inTime {
		return false
	}
	c.respond(res, err, time.Since(start))
	return true
}

// onTimeout is the timer's callback, on the timer's goroutine. If the
// statement is still running it answers CodeTimeout and closes the
// connection; the statement runs on, and the handler returns when it
// does.
func (c *servedConn) onTimeout() {
	if c.state.CompareAndSwap(stmtRunning, stmtTimedOut) {
		c.s.stats.timeouts.Add(1)
		c.writeError(wire.CodeTimeout,
			fmt.Sprintf("statement exceeded the %v query timeout", c.s.cfg.QueryTimeout))
		c.nc.Close()
	}
	c.fired <- struct{}{}
}

// writeError writes one error frame that ends the session and flushes
// it.
func (c *servedConn) writeError(code, msg string) {
	c.nc.SetWriteDeadline(time.Now().Add(rejectWriteTimeout))
	wire.WriteFrame(c.bw, wire.TError, wire.EncodeError(code, msg))
	c.bw.Flush()
}

// respond writes one statement outcome, flushes it, and records serving
// stats.
func (c *servedConn) respond(res *sql.Result, err error, elapsed time.Duration) {
	c.nc.SetWriteDeadline(time.Now().Add(respondWriteTimeout))
	defer c.nc.SetWriteDeadline(time.Time{})
	if err != nil {
		c.s.stats.errors.Add(1)
		wire.WriteFrame(c.bw, wire.TError, wire.EncodeError(wire.CodeError, err.Error()))
	} else {
		c.s.stats.queries.Add(1)
		if elapsed > 0 {
			// Server-side utility answers (elapsed 0) stay out of the
			// latency histogram; it reports SQL execution only.
			c.s.stats.observe(elapsed)
		}
		wire.WriteResult(c.bw, &wire.Result{Cols: res.Cols, Rows: res.Rows, Msg: res.Msg})
	}
	c.bw.Flush()
}

// ServerStatsQuery is the utility statement the server answers itself,
// without reaching the SQL layer: the serving-side analogue of
// PostgreSQL's pg_stat_activity.
const ServerStatsQuery = "server_stats"

// utilityQuery intercepts SHOW server_stats.
func (s *Server) utilityQuery(text string) (*sql.Result, bool) {
	text = strings.TrimSuffix(strings.TrimSpace(text), ";")
	// Every other statement leaves here without lowercasing its text (a
	// kNN statement is ~1.3 KB). No non-ASCII rune lowercases to any
	// of "show", so the ASCII fold rejects nothing the full check takes.
	if len(text) < 4 || !strings.EqualFold(text[:4], "show") {
		return nil, false
	}
	fields := strings.Fields(strings.ToLower(text))
	if len(fields) != 2 || fields[0] != "show" || fields[1] != ServerStatsQuery {
		return nil, false
	}
	st := s.Stats()
	res := &sql.Result{Cols: []string{"metric", "value"}}
	for _, row := range [][]any{
		{"conns_accepted", st.Accepted},
		{"conns_active", st.Active},
		{"conns_queued", st.Queued},
		{"conns_rejected", st.Rejected},
		{"queries_served", st.Queries},
		{"query_errors", st.Errors},
		{"query_timeouts", st.Timeouts},
		{"latency_p50", st.P50.String()},
		{"latency_p99", st.P99.String()},
	} {
		res.Rows = append(res.Rows, row)
	}
	if sr, ok := s.backend.(StatsRower); ok {
		res.Rows = append(res.Rows, sr.StatsRows()...)
	}
	return res, true
}

// Shutdown drains the server: stop accepting, reject queued arrivals,
// let in-flight statements finish, unblock idle connections, and wait
// for every handler (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.draining:
		return errors.New("server: already shut down")
	default:
	}
	close(s.draining)
	if s.lis != nil {
		s.lis.Close()
	}
	// Unblock connections parked in ReadFrame between statements. A
	// connection mid-statement is unaffected until it next reads, i.e.
	// after its in-flight response is written.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		// Force-close stragglers so their handlers exit.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}
