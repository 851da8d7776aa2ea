package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/session.golden from the server's output")

// countingConn counts the server side's Write calls and the Read calls
// that returned data, and keeps a copy of every byte written.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	reads  atomic.Int64

	mu  sync.Mutex
	out bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.out.Bytes())
}

// pipeClient is the far end of a net.Pipe whose near end the server
// serves. Every frame it sends leaves in one Write, so the server sees
// each frame arrive whole.
type pipeClient struct {
	t  testing.TB
	nc net.Conn
	br *bufio.Reader
}

// servePipe hands the near end of a fresh net.Pipe to s, wrapped in a
// countingConn, exactly as the accept loop hands it a TCP connection.
func servePipe(t testing.TB, s *Server) (*pipeClient, *countingConn) {
	t.Helper()
	near, far := net.Pipe()
	cc := &countingConn{Conn: near}
	s.stats.accepted.Add(1)
	s.wg.Add(1)
	go s.handle(cc)
	t.Cleanup(func() { far.Close() })
	return &pipeClient{t: t, nc: far, br: bufio.NewReader(far)}, cc
}

func (p *pipeClient) send(typ wire.Type, payload []byte) {
	p.t.Helper()
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, typ, payload); err != nil {
		p.t.Fatal(err)
	}
	if _, err := p.nc.Write(b.Bytes()); err != nil {
		p.t.Fatalf("send %q: %v", byte(typ), err)
	}
}

func (p *pipeClient) query(text string) (*wire.Result, error) {
	p.send(wire.TQuery, wire.EncodeQuery(text))
	return wire.ReadResult(p.br)
}

// cannedBackend answers every statement with one fixed result, so a
// test or benchmark measures the serving layer alone: no SQL, no access
// method. The statement "fail" returns an error; "slow" sleeps for
// slow first; "block" signals started, then waits for release.
type cannedBackend struct {
	res     *sql.Result
	slow    time.Duration
	started chan struct{}
	release chan struct{}
}

func (b *cannedBackend) NewSession() Session { return b }

func (b *cannedBackend) Execute(text string) (*sql.Result, error) {
	switch text {
	case "fail":
		return nil, errors.New("canned failure")
	case "slow":
		time.Sleep(b.slow)
	case "block":
		b.started <- struct{}{}
		<-b.release
	}
	return b.res, nil
}

// cannedKNN is a k = 10 answer shaped like a served kNN statement's:
// (id int, distance real) rows.
func cannedKNN() *sql.Result {
	res := &sql.Result{Cols: []string{"id", "distance"}}
	for i := 0; i < 10; i++ {
		res.Rows = append(res.Rows, []any{int32(1000 + i), float32(i) * 1.5})
	}
	return res
}

// vectorStatement is a kNN statement carrying a 128-float literal, the
// size of the served benchmark's statements.
func vectorStatement() string {
	var b strings.Builder
	b.WriteString("SELECT id, distance FROM t ORDER BY vec <-> '{")
	for i := 0; i < 128; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4f", float32(i)*0.37+0.123)
	}
	b.WriteString("}' LIMIT 10")
	return b.String()
}

func newCanned(cfg Config) (*Server, *cannedBackend) {
	b := &cannedBackend{
		res:     cannedKNN(),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	return NewWithBackend(b, cfg), b
}

func shutdown(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// expectCode reads one response and checks it is a wire error with code.
func (p *pipeClient) expectCode(code string) {
	p.t.Helper()
	_, err := wire.ReadResult(p.br)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != code {
		p.t.Fatalf("response = %v, want wire.Error/%s", err, code)
	}
}

// TestOneWritePerResponse pins the server's syscall shape: every
// response, on every path, leaves in exactly one Write, and a query
// frame that arrives whole is taken in at most one Read.
func TestOneWritePerResponse(t *testing.T) {
	// oneWrite runs step and checks it cost the server exactly one Write
	// (and, when maxReads >= 0, at most maxReads Reads that returned data).
	oneWrite := func(t *testing.T, cc *countingConn, what string, maxReads int64, step func()) {
		t.Helper()
		w0, r0 := cc.writes.Load(), cc.reads.Load()
		step()
		if w := cc.writes.Load() - w0; w != 1 {
			t.Errorf("%s: %d Writes, want 1", what, w)
		}
		if r := cc.reads.Load() - r0; maxReads >= 0 && r > maxReads {
			t.Errorf("%s: %d Reads, want <= %d", what, r, maxReads)
		}
	}

	t.Run("session", func(t *testing.T) {
		s, _ := newCanned(Config{})
		defer shutdown(t, s)
		p, cc := servePipe(t, s)
		oneWrite(t, cc, "result", 1, func() {
			res, err := p.query(vectorStatement())
			if err != nil || len(res.Rows) != 10 {
				t.Fatalf("result: %v, %v", res, err)
			}
		})
		oneWrite(t, cc, "error", 1, func() {
			if _, err := p.query("fail"); err == nil {
				t.Fatal("error path answered without an error")
			}
		})
		oneWrite(t, cc, "ping", 1, func() {
			p.send(wire.TPing, nil)
			if _, err := wire.ReadResult(p.br); err != nil {
				t.Fatal(err)
			}
		})
		oneWrite(t, cc, "server_stats", 1, func() {
			res, err := p.query("SHOW server_stats")
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("server_stats: %v, %v", res, err)
			}
		})
		oneWrite(t, cc, "unexpected frame", 1, func() {
			p.send(wire.THeader, nil)
			p.expectCode(wire.CodeError)
		})
	})

	t.Run("drain", func(t *testing.T) {
		s, b := newCanned(Config{})
		p, cc := servePipe(t, s)
		p.send(wire.TQuery, wire.EncodeQuery("block"))
		<-b.started
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drained <- s.Shutdown(ctx)
		}()
		<-s.draining
		w0 := cc.writes.Load()
		close(b.release)
		// The handler writes the in-flight result and then the drain
		// reject back to back, so the two are counted together.
		if _, err := wire.ReadResult(p.br); err != nil {
			t.Fatalf("in-flight result: %v", err)
		}
		p.expectCode(wire.CodeShutdown)
		if err := <-drained; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if w := cc.writes.Load() - w0; w != 2 {
			t.Errorf("in-flight result and drain reject: %d Writes, want 2", w)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		s, b := newCanned(Config{QueryTimeout: 20 * time.Millisecond})
		defer shutdown(t, s)
		p, cc := servePipe(t, s)
		oneWrite(t, cc, "timeout", 1, func() {
			p.send(wire.TQuery, wire.EncodeQuery("block"))
			<-b.started
			p.expectCode(wire.CodeTimeout)
		})
		close(b.release)
		// The timed-out connection is closed.
		if _, err := wire.ReadResult(p.br); !errors.Is(err, io.EOF) {
			t.Errorf("after timeout: %v, want EOF", err)
		}
	})

	t.Run("reject", func(t *testing.T) {
		s, _ := newCanned(Config{})
		shutdown(t, s)
		p, cc := servePipe(t, s)
		oneWrite(t, cc, "pre-session reject", -1, func() { p.expectCode(wire.CodeShutdown) })
	})
}

// TestTimeoutRace runs statements that return right at the query
// timeout. Each must be answered with its result or with CodeTimeout —
// never EOF or a torn frame — and a statement answered in time must
// leave its connection fit for the next one: a late timer fire must not
// time out the statement after it.
func TestTimeoutRace(t *testing.T) {
	const timeout = time.Millisecond
	iters := 300
	if testing.Short() {
		iters = 60
	}
	s, b := newCanned(Config{QueryTimeout: timeout})
	b.slow = timeout
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	var answered, timedOut int
	for i := 0; i < iters; i++ {
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute("slow")
		var werr *wire.Error
		switch {
		case err == nil:
			if len(res.Rows) != 10 {
				t.Fatalf("iteration %d: %d rows", i, len(res.Rows))
			}
			answered++
			if res, err := c.Execute("fast"); err != nil || len(res.Rows) != 10 {
				t.Fatalf("iteration %d: statement after an in-time answer: %v", i, err)
			}
		case errors.As(err, &werr) && werr.Code == wire.CodeTimeout:
			timedOut++
		default:
			t.Fatalf("iteration %d: %v, want a result or wire.Error/%s", i, err, wire.CodeTimeout)
		}
		c.Close()
	}
	t.Logf("%d answered, %d timed out", answered, timedOut)
	if got := s.Stats().Timeouts; got != int64(timedOut) {
		t.Errorf("Stats().Timeouts = %d, clients saw %d", got, timedOut)
	}
}

// TestSessionGolden pins the exact bytes the server writes for a fixed
// script over a real database: DDL, INSERT, SET, a k = 10 kNN, a parse
// error, a ping and an unexpected frame (which ends the session).
// SHOW server_stats is left out: it carries latencies. Run with
// -update to rewrite testdata/session.golden.
func TestSessionGolden(t *testing.T) {
	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(d, Config{})
	defer shutdown(t, s)
	p, cc := servePipe(t, s)

	var insert strings.Builder
	insert.WriteString("INSERT INTO g VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			insert.WriteString(", ")
		}
		fmt.Fprintf(&insert, "(%d, '{%d, %g, %d, 0.5}')", i, i%7, float32(i)*0.25, i/5)
	}
	for _, q := range []string{
		"CREATE TABLE g (id int, vec float[])",
		insert.String(),
		"CREATE INDEX gi ON g USING ivfflat (vec) WITH (clusters = 4, sample_ratio = 1, seed = 1)",
		"SET nprobe = 4",
		"SELECT id, distance FROM g ORDER BY vec <-> '{3, 2.5, 4, 0.5}' LIMIT 10",
		"SELEC id FROM g",
	} {
		if _, err := p.query(q); err != nil && !strings.HasPrefix(q, "SELEC ") {
			t.Fatalf("%s: %v", q, err)
		}
	}
	p.send(wire.TPing, nil)
	if _, err := wire.ReadResult(p.br); err != nil {
		t.Fatal(err)
	}
	p.send(wire.TRow, nil)
	p.expectCode(wire.CodeError)
	if _, err := wire.ReadResult(p.br); !errors.Is(err, io.EOF) {
		t.Fatalf("after unexpected frame: %v, want EOF", err)
	}

	got := frameLines(t, cc.written())
	path := filepath.Join("testdata", "session.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("frame %d differs from %s:\n got %s\nwant %s", i, path, g, w)
		}
	}
}

// frameLines splits a server byte stream into its frames, one hex line
// per frame, and checks the frames cover the stream exactly.
func frameLines(t *testing.T, stream []byte) []string {
	t.Helper()
	var lines []string
	for rest := stream; len(rest) > 0; {
		typ, payload, err := wire.ReadFrame(bytes.NewReader(rest))
		if err != nil {
			t.Fatalf("server stream does not frame: %v", err)
		}
		n := 5 + len(payload)
		lines = append(lines, fmt.Sprintf("%c %s", byte(typ), hex.EncodeToString(rest[:n])))
		rest = rest[n:]
	}
	return lines
}

// BenchmarkRoundTrip is the fixed cost of one served statement: one
// client over loopback TCP, a 1.3 KB kNN statement in, a canned k = 10
// (int, real) answer out, no SQL and no access method. Besides the
// mean it reports the median round trip.
func BenchmarkRoundTrip(b *testing.B) {
	s, _ := newCanned(Config{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer shutdown(b, s)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	stmt := vectorStatement()
	for i := 0; i < 200; i++ {
		if _, err := c.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if _, err := c.Execute(stmt); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
}
