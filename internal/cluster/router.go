package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/minheap"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/server"
	"vecstudy/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// PoolSize bounds connections per replica (checked out + idle).
	// 0 means 8.
	PoolSize int
	// DialTimeout bounds backend connection attempts. 0 means 2s.
	DialTimeout time.Duration
	// ShardDeadline bounds one per-shard subquery (pool checkout +
	// settings replay + execution). 0 means 10s.
	ShardDeadline time.Duration
	// HealthInterval paces the background replica health probes that
	// mark replicas down/up. 0 means 2s; negative disables probing
	// (replicas are then only marked down by failed subqueries and
	// never revived).
	HealthInterval time.Duration
	// Partial enables degraded answers: a kNN or scan query whose
	// shard is entirely unreachable returns the reachable shards'
	// merged rows with a DEGRADED message tag instead of failing.
	Partial bool
}

func (c *Config) defaults() {
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ShardDeadline <= 0 {
		c.ShardDeadline = 10 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
}

// replica is one backend server: its connection pool and health state.
type replica struct {
	shard int
	addr  string
	pool  *client.Pool
	down  atomic.Bool
}

// routerStats is the router's hot-path instrumentation.
type routerStats struct {
	queries   atomic.Int64 // statements executed through router sessions
	errors    atomic.Int64 // statements that failed
	fanouts   atomic.Int64 // per-shard subqueries issued (scatter width)
	retries   atomic.Int64 // subqueries reissued on the next replica
	failovers atomic.Int64 // replicas marked down by a failed subquery
	degraded  atomic.Int64 // queries answered without every shard
}

// Stats is a point-in-time snapshot of router activity.
type Stats struct {
	Shards       int
	Replicas     int
	ReplicasDown int
	Queries      int64
	Errors       int64
	Fanouts      int64
	Retries      int64
	Failovers    int64
	Degraded     int64
}

// Router fans statements out across the shard map. It implements
// server.Backend, so mounting it under server.NewWithBackend gives
// clients the identical wire protocol against the cluster as against a
// single server.
type Router struct {
	m      *ShardMap
	cfg    Config
	shards [][]*replica
	stats  routerStats

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// NewRouter builds a router over the shard map and starts its health
// checker. Close releases the pools and stops the checker.
func NewRouter(m *ShardMap, cfg Config) *Router {
	cfg.defaults()
	r := &Router{m: m, cfg: cfg, stop: make(chan struct{})}
	for si, addrs := range m.Shards {
		reps := make([]*replica, len(addrs))
		for ri, addr := range addrs {
			reps[ri] = &replica{
				shard: si,
				addr:  addr,
				pool:  client.NewPool(addr, cfg.PoolSize, cfg.DialTimeout),
			}
		}
		r.shards = append(r.shards, reps)
	}
	if cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r
}

// Close stops the health checker and closes every backend pool.
func (r *Router) Close() {
	r.closeMu.Lock()
	if r.closed {
		r.closeMu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	r.closeMu.Unlock()
	r.wg.Wait()
	for _, reps := range r.shards {
		for _, rep := range reps {
			rep.pool.Close()
		}
	}
}

// Stats snapshots the router counters and replica health.
func (r *Router) Stats() Stats {
	st := Stats{
		Shards:    len(r.shards),
		Queries:   r.stats.queries.Load(),
		Errors:    r.stats.errors.Load(),
		Fanouts:   r.stats.fanouts.Load(),
		Retries:   r.stats.retries.Load(),
		Failovers: r.stats.failovers.Load(),
		Degraded:  r.stats.degraded.Load(),
	}
	for _, reps := range r.shards {
		st.Replicas += len(reps)
		for _, rep := range reps {
			if rep.down.Load() {
				st.ReplicasDown++
			}
		}
	}
	return st
}

// StatsRows implements server.StatsRower: the router's counters ride
// along in the front-end server's SHOW server_stats answer.
func (r *Router) StatsRows() [][]any {
	st := r.Stats()
	return [][]any{
		{"router_shards", int64(st.Shards)},
		{"router_replicas", int64(st.Replicas)},
		{"router_replicas_down", int64(st.ReplicasDown)},
		{"router_queries", st.Queries},
		{"router_errors", st.Errors},
		{"router_fanouts", st.Fanouts},
		{"router_retries", st.Retries},
		{"router_failovers", st.Failovers},
		{"router_degraded", st.Degraded},
	}
}

// NewSession implements server.Backend. Each client connection gets its
// own routing session so SET knobs stay per-session, exactly as on a
// single server: the session records its SETs and replays them onto
// whichever pooled backend connection executes its subqueries.
func (r *Router) NewSession() server.Session { return &Session{r: r} }

// Session is one client connection's routing state.
type Session struct {
	r    *Router
	sets []sql.SetStmt // session SETs in apply order, last write per knob
	fp   string        // fingerprint of sets, compared against PoolConn.Tag
}

// Execute classifies one statement and routes it: session-local (SET,
// SHOW), broadcast (DDL to every replica, INSERT split by placement to
// the owning shard's replicas), or scatter-gather (SELECT).
func (s *Session) Execute(text string) (*sql.Result, error) {
	res, err := s.execute(text)
	if err != nil {
		s.r.stats.errors.Add(1)
	} else {
		s.r.stats.queries.Add(1)
	}
	return res, err
}

func (s *Session) execute(text string) (*sql.Result, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sql.SetStmt:
		return s.runSet(st)
	case *sql.ShowStmt:
		return s.runShow(st)
	case *sql.CreateTableStmt, *sql.CreateIndexStmt:
		return s.broadcastAll(text)
	case *sql.InsertStmt:
		return s.routeInsert(st)
	case *sql.DeleteStmt:
		// Broadcast verbatim: each shard's WHERE matches only the rows it
		// owns, so the union of per-shard deletes is exactly the global
		// delete. Counts are summed across shards.
		return s.broadcastMutation(text, "DELETE")
	case *sql.UpdateStmt:
		return s.broadcastMutation(text, "UPDATE")
	case *sql.VacuumStmt:
		return s.broadcastAll(text)
	case *sql.SelectStmt:
		if st.OrderCol != "" && !st.CountStar {
			return s.scatterKNN(st)
		}
		return s.scatterScan(st)
	default:
		return nil, fmt.Errorf("cluster: statement %T is not supported through the router", stmt)
	}
}

// --- session-local statements ----------------------------------------------

func (s *Session) runSet(st *sql.SetStmt) (*sql.Result, error) {
	known := false
	for _, k := range sql.KnownSettings() {
		if k.Name == st.Name {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("cluster: unrecognized setting %q (SHOW ALL lists the known settings)", st.Name)
	}
	// Reject bad values at record time: these SETs replay onto shard
	// sessions later, where the failure would blame an innocent query.
	if err := sql.ValidateSetting(st.Name, st.Value); err != nil {
		return nil, err
	}
	replaced := false
	for i := range s.sets {
		if s.sets[i].Name == st.Name {
			s.sets[i] = *st
			replaced = true
			break
		}
	}
	if !replaced {
		s.sets = append(s.sets, *st)
	}
	var b strings.Builder
	for _, set := range s.sets {
		b.WriteString(set.Name)
		b.WriteByte('=')
		b.WriteString(set.Value)
		b.WriteByte(';')
	}
	s.fp = b.String()
	return &sql.Result{Msg: "SET"}, nil
}

// runShow answers from the session's own settings. Router sessions hold
// settings as overrides-to-replay, so SHOW reports the session value or
// the dialect default — not any one shard's live state.
func (s *Session) runShow(st *sql.ShowStmt) (*sql.Result, error) {
	value := func(k sql.Setting) string {
		for _, set := range s.sets {
			if set.Name == k.Name {
				return set.Value
			}
		}
		return k.Default
	}
	if st.Name == "all" {
		res := &sql.Result{Cols: []string{"name", "setting", "description"}}
		for _, k := range sql.KnownSettings() {
			res.Rows = append(res.Rows, []any{k.Name, value(k), k.Desc})
		}
		return res, nil
	}
	for _, k := range sql.KnownSettings() {
		if k.Name == st.Name {
			return &sql.Result{Cols: []string{st.Name}, Rows: [][]any{{value(k)}}}, nil
		}
	}
	return nil, fmt.Errorf("cluster: unrecognized setting %q (SHOW ALL lists the known settings)", st.Name)
}

// --- backend execution ------------------------------------------------------

// isStatementError reports whether err is a deterministic statement-
// level failure every replica would reproduce (parse error, execution
// error, per-query timeout, admission rejection under the session's own
// load). A shutdown error is excluded: the replica is going away, which
// is exactly the case failover exists for.
func isStatementError(err error) bool {
	var werr *wire.Error
	if !errors.As(err, &werr) {
		return false
	}
	return werr.Code != wire.CodeShutdown
}

// execOnReplica runs one statement on one replica under the shard
// deadline, replaying the session's SETs first when the pooled conn
// last served a session with different settings.
func (s *Session) execOnReplica(rep *replica, text string) (*wire.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.r.cfg.ShardDeadline)
	defer cancel()
	pc, err := rep.pool.Get(ctx)
	if err != nil {
		return nil, err
	}
	pc.SetReadTimeout(s.r.cfg.ShardDeadline)
	if pc.Tag != s.fp {
		for _, set := range s.sets {
			if _, err := pc.Execute("SET " + set.Name + " = " + set.Value); err != nil {
				rep.pool.Put(pc, err)
				return nil, err
			}
		}
		pc.Tag = s.fp
	}
	res, err := pc.Execute(text)
	rep.pool.Put(pc, err)
	return res, err
}

// replicaOrder returns shard's replicas, healthy ones first, preserving
// the configured order within each class (so replica 0 stays preferred
// while it is up).
func (r *Router) replicaOrder(shard int) []*replica {
	reps := r.shards[shard]
	out := make([]*replica, 0, len(reps))
	for _, rep := range reps {
		if !rep.down.Load() {
			out = append(out, rep)
		}
	}
	for _, rep := range reps {
		if rep.down.Load() {
			out = append(out, rep)
		}
	}
	return out
}

// queryShard executes a read on one shard with retry-once-on-next-
// replica failover. A statement-level error is returned immediately
// (it is deterministic — every replica would reject it identically); a
// transport-level failure marks the replica down and moves on.
func (s *Session) queryShard(shard int, text string) (*wire.Result, error) {
	r := s.r
	r.stats.fanouts.Add(1)
	reps := r.replicaOrder(shard)
	attempts := len(reps)
	if attempts > 2 {
		attempts = 2
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			r.stats.retries.Add(1)
		}
		rep := reps[i]
		res, err := s.execOnReplica(rep, text)
		if err == nil {
			rep.down.Store(false)
			return res, nil
		}
		if isStatementError(err) {
			return nil, err
		}
		lastErr = err
		if !rep.down.Swap(true) {
			r.stats.failovers.Add(1)
		}
	}
	return nil, fmt.Errorf("cluster: shard %d unreachable: %w", shard, lastErr)
}

// broadcastShard sends a write to every replica of one shard; all must
// succeed (replication is synchronous and has no reconciliation — a
// down replica fails the write rather than silently diverging).
func (s *Session) broadcastShard(shard int, text string) (*wire.Result, error) {
	reps := s.r.shards[shard]
	results := make([]*wire.Result, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			results[i], errs[i] = s.execOnReplica(rep, text)
		}(i, rep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d replica %s: %w", shard, reps[i].addr, err)
		}
	}
	return results[0], nil
}

// broadcastAll sends DDL to every replica of every shard.
func (s *Session) broadcastAll(text string) (*sql.Result, error) {
	S := len(s.r.shards)
	results := make([]*wire.Result, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for sh := 0; sh < S; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			results[sh], errs[sh] = s.broadcastShard(sh, text)
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &sql.Result{Cols: results[0].Cols, Rows: results[0].Rows, Msg: results[0].Msg}, nil
}

// broadcastMutation sends a DELETE or UPDATE to every replica of every
// shard and sums the per-shard row counts into one "VERB n" tag (each
// shard reports only the rows it owns, so the sum is the global count).
func (s *Session) broadcastMutation(text, verb string) (*sql.Result, error) {
	S := len(s.r.shards)
	results := make([]*wire.Result, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for sh := 0; sh < S; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			results[sh], errs[sh] = s.broadcastShard(sh, text)
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var total int64
	for _, res := range results {
		fields := strings.Fields(res.Msg)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64); err == nil {
			total += n
		}
	}
	return &sql.Result{Msg: fmt.Sprintf("%s %d", verb, total)}, nil
}

// routeInsert splits an INSERT's rows by placement — the first numeric
// column is the rowid — and broadcasts each group to its shard's
// replicas.
func (s *Session) routeInsert(st *sql.InsertStmt) (*sql.Result, error) {
	m := s.r.m
	groups := make([][][]sql.Literal, m.NumShards())
	for _, row := range st.Rows {
		id, ok := rowidOf(row)
		if !ok {
			return nil, fmt.Errorf("cluster: INSERT row has no integer rowid in its first column; the router places rows by rowid %% %d", m.NumShards())
		}
		sh := m.ShardFor(id)
		groups[sh] = append(groups[sh], row)
	}
	type out struct {
		err error
	}
	outs := make([]out, m.NumShards())
	var wg sync.WaitGroup
	for sh, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, rows [][]sql.Literal) {
			defer wg.Done()
			_, err := s.broadcastShard(sh, renderInsert(st.Table, rows))
			outs[sh].err = err
		}(sh, rows)
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}
	return &sql.Result{Msg: fmt.Sprintf("INSERT 0 %d", len(st.Rows))}, nil
}

// rowidOf extracts the placement id: the first numeric column.
func rowidOf(row []sql.Literal) (int64, bool) {
	for _, lit := range row {
		if lit.IsNum {
			return int64(lit.Num), true
		}
	}
	return 0, false
}

// --- scatter-gather reads ---------------------------------------------------

// shardOutcome is one shard's scatter result.
type shardOutcome struct {
	res *wire.Result
	err error
}

// scatter runs text on every shard in parallel (one replica each, with
// failover) and gathers the outcomes.
func (s *Session) scatter(text string) []shardOutcome {
	S := len(s.r.shards)
	outs := make([]shardOutcome, S)
	var wg sync.WaitGroup
	for sh := 0; sh < S; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			outs[sh].res, outs[sh].err = s.queryShard(sh, text)
		}(sh)
	}
	wg.Wait()
	return outs
}

// gatherAvailable partitions scatter outcomes into reachable results
// and failed shard ids, honouring the partial-results mode: a
// statement-level error always fails the whole query, a transport-level
// shard failure either fails it (strict) or records the shard as
// degraded (partial).
func (s *Session) gatherAvailable(outs []shardOutcome) (reached map[int]*wire.Result, failed []int, err error) {
	reached = make(map[int]*wire.Result, len(outs))
	for sh, out := range outs {
		if out.err == nil {
			reached[sh] = out.res
			continue
		}
		if isStatementError(out.err) || !s.r.cfg.Partial {
			return nil, nil, out.err
		}
		failed = append(failed, sh)
	}
	if len(reached) == 0 {
		return nil, nil, fmt.Errorf("cluster: all %d shards unreachable: %w", len(outs), outs[0].err)
	}
	return reached, failed, nil
}

// degradedMsg tags a partial answer with the shards it is missing.
func degradedMsg(failed []int) string {
	parts := make([]string, len(failed))
	for i, sh := range failed {
		parts[i] = fmt.Sprint(sh)
	}
	return "DEGRADED: shard(s) " + strings.Join(parts, ",") + " unreachable"
}

// scatterKNN is the hot path: fan the top-k search out to every shard
// (rewritten so each shard reports the distance pseudo-column), then
// merge the per-shard top-k lists into the global top-k via the
// deterministic bounded heap. Each shard's global-top-k members are by
// definition within that shard's local top-k, so merging size-k lists
// loses nothing.
func (s *Session) scatterKNN(st *sql.SelectStmt) (*sql.Result, error) {
	text, _, added := renderSelect(st, true)
	outs := s.scatter(text)
	reached, failed, err := s.gatherAvailable(outs)
	if err != nil {
		return nil, err
	}

	// Locate the distance column in the answered header, not in the
	// rendered target list: a `*` in the list expands to several
	// columns on the shard, shifting positions. The renderer appends
	// distance last, so on ties the last occurrence is ours.
	var cols []string
	for sh := 0; sh < len(outs); sh++ {
		if res, ok := reached[sh]; ok {
			cols = res.Cols
			break
		}
	}
	distIdx := -1
	for i, c := range cols {
		if c == sql.DistanceColumn {
			distIdx = i
		}
	}
	if distIdx < 0 {
		return nil, fmt.Errorf("cluster: shards answered without a %s column (cols %v)", sql.DistanceColumn, cols)
	}

	// Per-shard candidate lists: ID encodes (shard, row position), so
	// the merge tie-breaks on (distance, shard, tid) and the gathered
	// ordering is identical across runs.
	k := 0
	lists := make([][]minheap.Item, 0, len(reached))
	for sh := 0; sh < len(outs); sh++ {
		res, ok := reached[sh]
		if !ok {
			continue
		}
		items := make([]minheap.Item, len(res.Rows))
		for i, row := range res.Rows {
			d, ok := row[distIdx].(float32)
			if !ok {
				return nil, fmt.Errorf("cluster: shard %d returned a non-float distance %T", sh, row[distIdx])
			}
			items[i] = minheap.Item{ID: int64(sh)<<32 | int64(i), Dist: d}
		}
		lists = append(lists, items)
		k += len(items)
	}
	if st.HasLimit && st.Limit < k {
		k = st.Limit
	}
	if k == 0 {
		k = 1 // MergeK needs k >= 1; an empty merge returns no items anyway
	}

	rows := make([][]any, 0, k)
	for _, it := range minheap.MergeK(k, lists...) {
		sh, pos := int(it.ID>>32), int(it.ID&0xffffffff)
		row := reached[sh].Rows[pos]
		if added {
			row = row[:distIdx:distIdx] // strip the appended (last) distance column
		}
		rows = append(rows, row)
	}
	res := &sql.Result{Cols: cols, Rows: rows}
	if added {
		res.Cols = cols[:distIdx:distIdx]
	}
	if len(failed) > 0 {
		s.r.stats.degraded.Add(1)
		res.Msg = degradedMsg(failed)
	}
	return res, nil
}

// scatterScan handles non-kNN SELECTs: count(*) sums per-shard counts;
// plain scans concatenate rows in shard order (and truncate to LIMIT).
func (s *Session) scatterScan(st *sql.SelectStmt) (*sql.Result, error) {
	text, _, _ := renderSelect(st, false)
	outs := s.scatter(text)
	reached, failed, err := s.gatherAvailable(outs)
	if err != nil {
		return nil, err
	}
	res := &sql.Result{}
	if st.CountStar {
		var total int64
		for _, r := range reached {
			if len(r.Rows) == 1 && len(r.Rows[0]) == 1 {
				if n, ok := r.Rows[0][0].(int64); ok {
					total += n
				}
			}
			res.Cols = r.Cols
		}
		res.Rows = [][]any{{total}}
	} else {
		for sh := 0; sh < len(outs); sh++ {
			r, ok := reached[sh]
			if !ok {
				continue
			}
			res.Cols = r.Cols
			res.Rows = append(res.Rows, r.Rows...)
		}
		if st.HasLimit && len(res.Rows) > st.Limit {
			res.Rows = res.Rows[:st.Limit]
		}
	}
	if len(failed) > 0 {
		s.r.stats.degraded.Add(1)
		res.Msg = degradedMsg(failed)
	}
	return res, nil
}
