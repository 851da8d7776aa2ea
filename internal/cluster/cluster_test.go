package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/dataset"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/server"

	_ "vecstudy/internal/pase/all"
)

// harness is a loopback cluster: real servers over fresh in-memory
// databases, one per replica, addressable for targeted kills.
type harness struct {
	t       *testing.T
	servers [][]*server.Server
	m       *ShardMap
}

// newHarness starts len(replicasPerShard) shards, shard i with
// replicasPerShard[i] replica servers, all empty (load goes through the
// router, which is itself part of what the tests exercise).
func newHarness(t *testing.T, replicasPerShard ...int) *harness {
	t.Helper()
	h := &harness{t: t, m: &ShardMap{}}
	for _, nr := range replicasPerShard {
		var servers []*server.Server
		var addrs []string
		for r := 0; r < nr; r++ {
			d, err := db.Open(db.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			s := server.New(d, server.Config{})
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s.Shutdown(ctx) // ignore "already shut down" from kills
			})
			servers = append(servers, s)
			addrs = append(addrs, s.Addr().String())
		}
		h.servers = append(h.servers, servers)
		h.m.Shards = append(h.m.Shards, addrs)
	}
	return h
}

// kill force-stops one replica server, simulating a crash: the listener
// closes and every open connection is torn down.
func (h *harness) kill(shard, rep int) {
	h.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.servers[shard][rep].Shutdown(ctx)
}

func (h *harness) router(cfg Config) *Router {
	h.t.Helper()
	r := NewRouter(h.m, cfg)
	h.t.Cleanup(r.Close)
	return r
}

func mustExec(t *testing.T, sess server.Session, q string) *sql.Result {
	t.Helper()
	res, err := sess.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// loadLine creates the line-vector table used across tests (vector i is
// {i,i,0,0}, so nearest neighbors are unambiguous) through the router.
func loadLine(t *testing.T, sess server.Session, n int) {
	t.Helper()
	mustExec(t, sess, "CREATE TABLE t (id int, vec float[])")
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '{%d, %d, 0, 0}')", i, i, i)
	}
	mustExec(t, sess, b.String())
	mustExec(t, sess, "CREATE INDEX idx ON t USING ivfflat (vec) WITH (clusters = 8, sample_ratio = 1, seed = 1)")
}

func ids(t *testing.T, res *sql.Result) []int32 {
	t.Helper()
	out := make([]int32, len(res.Rows))
	for i, row := range res.Rows {
		id, ok := row[0].(int32)
		if !ok {
			t.Fatalf("row %d: id column is %T, want int32", i, row[0])
		}
		out[i] = id
	}
	return out
}

func TestClusterBasic(t *testing.T) {
	h := newHarness(t, 1, 1) // 2 shards, 1 replica each
	r := h.router(Config{HealthInterval: -1})
	sess := r.NewSession()
	loadLine(t, sess, 100)

	// Placement is disjoint and modulo: check each shard directly.
	for shard := 0; shard < 2; shard++ {
		c, err := client.Dial(h.m.Shards[shard][0])
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute("SELECT count(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].(int64); n != 50 {
			t.Errorf("shard %d holds %d rows, want 50", shard, n)
		}
		res, err = c.Execute("SELECT id FROM t ORDER BY vec <-> '{0,0,0,0}' LIMIT 100")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids(t, &sql.Result{Cols: res.Cols, Rows: res.Rows}) {
			if int(id)%2 != shard {
				t.Fatalf("shard %d holds id %d, violating modulo placement", shard, id)
			}
		}
		c.Close()
	}

	// Global count sums shards.
	res := mustExec(t, sess, "SELECT count(*) FROM t")
	if n := res.Rows[0][0].(int64); n != 100 {
		t.Errorf("count(*) = %d, want 100", n)
	}

	// kNN with explicit distance column: global top-3 spans both shards.
	res = mustExec(t, sess, "SELECT id, distance FROM t ORDER BY vec <-> '{42, 42, 0, 0}' LIMIT 3")
	got := ids(t, res)
	if len(got) != 3 || got[0] != 42 {
		t.Fatalf("top-3 near 42 = %v", got)
	}
	if got[1] != 41 && got[1] != 43 {
		t.Fatalf("top-3 near 42 = %v", got)
	}

	// kNN without the distance column: router appends it for the merge
	// and must strip it from the answer.
	res = mustExec(t, sess, "SELECT id FROM t ORDER BY vec <-> '{42, 42, 0, 0}' LIMIT 3")
	if len(res.Cols) != 1 || res.Cols[0] != "id" {
		t.Fatalf("cols = %v, want [id]", res.Cols)
	}
	if len(res.Rows[0]) != 1 {
		t.Fatalf("row width = %d, want 1 (distance not stripped)", len(res.Rows[0]))
	}
	if got := ids(t, res); got[0] != 42 {
		t.Fatalf("top-3 near 42 = %v", got)
	}

	// Star kNN: `*` expands on the shards, so the appended distance
	// column must be located by name and stripped from the end.
	res = mustExec(t, sess, "SELECT * FROM t ORDER BY vec <-> '{42, 42, 0, 0}' LIMIT 2")
	if len(res.Cols) != 2 || res.Cols[0] != "id" || res.Cols[1] != "vec" {
		t.Fatalf("star kNN cols = %v, want [id vec]", res.Cols)
	}
	if got := ids(t, res); got[0] != 42 {
		t.Fatalf("star kNN top-2 near 42 = %v", got)
	}
	if _, ok := res.Rows[0][1].([]float32); !ok {
		t.Fatalf("star kNN vec column is %T", res.Rows[0][1])
	}

	// Point scan: only the owning shard has the row.
	res = mustExec(t, sess, "SELECT id FROM t WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].(int32) != 7 {
		t.Fatalf("WHERE id = 7 returned %v", res.Rows)
	}

	// Session settings: validated locally, visible in SHOW, replayed to
	// backends (nprobe = 1 with 8 clusters restricts the scan).
	if _, err := sess.Execute("SET no_such_knob = 1"); err == nil {
		t.Error("SET of unknown knob succeeded")
	}
	mustExec(t, sess, "SET nprobe = 8")
	res = mustExec(t, sess, "SHOW nprobe")
	if res.Rows[0][0].(string) != "8" {
		t.Errorf("SHOW nprobe = %v", res.Rows[0])
	}
	res = mustExec(t, sess, "SELECT id FROM t ORDER BY vec <-> '{13, 13, 0, 0}' LIMIT 1")
	if got := ids(t, res); got[0] != 13 {
		t.Fatalf("nprobe=8 top-1 near 13 = %v", got)
	}

	st := r.Stats()
	if st.Shards != 2 || st.Replicas != 2 || st.ReplicasDown != 0 {
		t.Errorf("stats topology = %+v", st)
	}
	if st.Fanouts == 0 || st.Queries == 0 {
		t.Errorf("stats counters = %+v", st)
	}
	if st.Failovers != 0 || st.Degraded != 0 {
		t.Errorf("healthy cluster reports failures: %+v", st)
	}
}

func TestFailover(t *testing.T) {
	h := newHarness(t, 2, 1) // shard 0 has 2 replicas, shard 1 has 1
	r := h.router(Config{HealthInterval: -1, ShardDeadline: 3 * time.Second})
	sess := r.NewSession()
	loadLine(t, sess, 60)

	// Warm the pools so stale connections to the killed replica exist.
	mustExec(t, sess, "SELECT id FROM t ORDER BY vec <-> '{5, 5, 0, 0}' LIMIT 1")

	h.kill(0, 0)

	// Every query must keep succeeding via shard 0's second replica.
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("SELECT id FROM t ORDER BY vec <-> '{%d, %d, 0, 0}' LIMIT 3", i, i)
		res := mustExec(t, sess, q)
		if got := ids(t, res); got[0] != int32(i) {
			t.Fatalf("query %d: top-1 = %v", i, got)
		}
		if res.Msg != "" {
			t.Fatalf("query %d tagged %q despite surviving replica", i, res.Msg)
		}
	}

	st := r.Stats()
	if st.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", st.Failovers)
	}
	if st.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", st.Retries)
	}
	if st.ReplicasDown != 1 {
		t.Errorf("replicas down = %d, want 1", st.ReplicasDown)
	}
	if st.Degraded != 0 {
		t.Errorf("degraded = %d, want 0 (the shard never lost quorum)", st.Degraded)
	}
}

func TestDegraded(t *testing.T) {
	h := newHarness(t, 1, 1)
	partial := h.router(Config{HealthInterval: -1, ShardDeadline: 3 * time.Second, Partial: true})
	strict := h.router(Config{HealthInterval: -1, ShardDeadline: 3 * time.Second})
	sess := partial.NewSession()
	loadLine(t, sess, 40)

	h.kill(1, 0) // shard 1 (odd ids) has no surviving replica

	// Partial mode: reachable shards answer, tagged DEGRADED.
	res := mustExec(t, sess, "SELECT id FROM t ORDER BY vec <-> '{10, 10, 0, 0}' LIMIT 5")
	if !strings.Contains(res.Msg, "DEGRADED") || !strings.Contains(res.Msg, "shard(s) 1") {
		t.Fatalf("msg = %q, want DEGRADED tag naming shard 1", res.Msg)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("degraded top-5 returned %d rows", len(res.Rows))
	}
	for _, id := range ids(t, res) {
		if id%2 != 0 {
			t.Fatalf("degraded answer contains id %d from the dead shard", id)
		}
	}

	res = mustExec(t, sess, "SELECT count(*) FROM t")
	if n := res.Rows[0][0].(int64); n != 20 {
		t.Errorf("degraded count(*) = %d, want 20", n)
	}
	if !strings.Contains(res.Msg, "DEGRADED") {
		t.Errorf("degraded count(*) msg = %q", res.Msg)
	}

	if st := partial.Stats(); st.Degraded < 2 {
		t.Errorf("degraded counter = %d, want >= 2", st.Degraded)
	}

	// Strict mode: the same query fails outright.
	if _, err := strict.NewSession().Execute("SELECT id FROM t ORDER BY vec <-> '{10, 10, 0, 0}' LIMIT 5"); err == nil {
		t.Fatal("strict router answered with a dead shard")
	}
}

// TestHealthRevive kills nothing but checks the prober flips a
// transiently-marked-down replica back up.
func TestHealthRevive(t *testing.T) {
	h := newHarness(t, 1)
	r := h.router(Config{HealthInterval: 20 * time.Millisecond})
	sess := r.NewSession()
	loadLine(t, sess, 10)

	rep := r.shards[0][0]
	rep.down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for rep.down.Load() {
		if time.Now().After(deadline) {
			t.Fatal("health prober never revived the replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecallParity: scatter-gather over S shards returns exactly the
// same top-k set as a single node over the union, on a seeded workload,
// with run-to-run deterministic ordering.
func TestRecallParity(t *testing.T) {
	p, err := dataset.ProfileByName("sift1m")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(p, dataset.GenOptions{Scale: 0.001, Seed: 7, MaxQueries: 20})
	const k = 10

	insertChunk := func(lo, hi int) string {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			b.WriteString("(")
			b.WriteString(strconv.Itoa(i))
			b.WriteString(", '{")
			for j, x := range ds.Base.Row(i) {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
			}
			b.WriteString("}')")
		}
		return b.String()
	}
	load := func(sess interface {
		Execute(string) (*sql.Result, error)
	}) {
		t.Helper()
		mustExec(t, sess, "CREATE TABLE t (id int, vec float[])")
		for lo := 0; lo < ds.N(); lo += 100 {
			hi := lo + 100
			if hi > ds.N() {
				hi = ds.N()
			}
			mustExec(t, sess, insertChunk(lo, hi))
		}
		mustExec(t, sess, "CREATE INDEX idx ON t USING ivfflat (vec) WITH (clusters = 16, sample_ratio = 1, seed = 1)")
		// nprobe far above the cluster count makes ivfflat exact, so
		// single-node and scatter-gather answers must agree as sets.
		mustExec(t, sess, "SET nprobe = 1000000")
	}
	queryText := func(q int) string {
		var b strings.Builder
		b.WriteString("SELECT id, distance FROM t ORDER BY vec <-> '{")
		for j, x := range ds.Queries.Row(q) {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
		}
		fmt.Fprintf(&b, "}' LIMIT %d", k)
		return b.String()
	}

	// Single-node reference over the union.
	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	single := sql.NewSession(d)
	load(single)

	for _, S := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", S), func(t *testing.T) {
			shape := make([]int, S)
			for i := range shape {
				shape[i] = 1
			}
			h := newHarness(t, shape...)
			r := h.router(Config{HealthInterval: -1})
			sess := r.NewSession()
			load(sess)

			for q := 0; q < ds.NQ(); q++ {
				text := queryText(q)
				want := mustExec(t, single, text)
				got := mustExec(t, sess, text)
				if len(got.Rows) != k || len(want.Rows) != k {
					t.Fatalf("query %d: got %d rows, single node %d, want %d", q, len(got.Rows), len(want.Rows), k)
				}
				wantSet := map[int32]bool{}
				for _, id := range ids(t, want) {
					wantSet[id] = true
				}
				for _, id := range ids(t, got) {
					if !wantSet[id] {
						t.Errorf("query %d: cluster returned id %d outside the single-node top-%d", q, id, k)
					}
				}
				// Deterministic ordering: a fresh session must reproduce
				// the merged order exactly.
				again := mustExec(t, r.NewSession().(*Session), text)
				for i := range got.Rows {
					if got.Rows[i][0] != again.Rows[i][0] {
						t.Fatalf("query %d: merged order differs across runs at rank %d", q, i)
					}
				}
			}
		})
	}
}

// TestClusterConcurrent hammers the router from parallel sessions while
// a replica dies mid-traffic; every query must still succeed. Run under
// -race this also checks the scatter/health/pool paths for races.
func TestClusterConcurrent(t *testing.T) {
	h := newHarness(t, 2, 2)
	r := h.router(Config{HealthInterval: 50 * time.Millisecond, ShardDeadline: 5 * time.Second})
	loadLine(t, r.NewSession(), 80)

	const goroutines = 8
	const perG = 15
	errc := make(chan error, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := r.NewSession()
			for i := 0; i < perG; i++ {
				if g == 0 && i == 5 {
					h.kill(0, 0)
				}
				n := (g*perG + i) % 80
				q := fmt.Sprintf("SELECT id FROM t ORDER BY vec <-> '{%d, %d, 0, 0}' LIMIT 3", n, n)
				res, err := sess.Execute(q)
				if err != nil {
					errc <- fmt.Errorf("g%d q%d: %w", g, i, err)
					continue
				}
				if res.Rows[0][0].(int32) != int32(n) {
					errc <- fmt.Errorf("g%d q%d: top-1 = %v", g, i, res.Rows[0][0])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := r.Stats(); st.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1 after mid-traffic kill", st.Failovers)
	}
}

// TestFilteredClusterParity: filtered kNN through the router must match
// a single node over the union at every acceptance selectivity, for
// every strategy the session can force. Predicates are row-local, so
// per-shard filtered top-k merges exactly; this also exercises the
// WHERE re-render and the filter_strategy/filter_overfetch SET replay.
func TestFilteredClusterParity(t *testing.T) {
	const n, k = 400, 10
	loadAttr := func(sess interface {
		Execute(string) (*sql.Result, error)
	}) {
		t.Helper()
		mustExec(t, sess, "CREATE TABLE t (id int, attr int, vec float[])")
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, '{%d, %d, 0, 0}')", i, i%100, i, i%100)
		}
		mustExec(t, sess, b.String())
		mustExec(t, sess, "CREATE INDEX idx ON t USING ivfflat (vec) WITH (clusters = 16, sample_ratio = 1, seed = 1)")
		mustExec(t, sess, "SET nprobe = 1000000") // exact: probe everything
	}

	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	single := sql.NewSession(d)
	loadAttr(single)

	for _, S := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", S), func(t *testing.T) {
			shape := make([]int, S)
			for i := range shape {
				shape[i] = 1
			}
			h := newHarness(t, shape...)
			r := h.router(Config{HealthInterval: -1})
			sess := r.NewSession()
			loadAttr(sess)

			for _, selPct := range []int{1, 10, 50, 90} {
				where := fmt.Sprintf("attr < %d", selPct)
				q := fmt.Sprintf("SELECT id, distance FROM t WHERE %s ORDER BY vec <-> '{200.3, 41.7, 0, 0}' LIMIT %d", where, k)
				want := ids(t, mustExec(t, single, q))
				for _, strat := range []string{"auto", "pre", "post", "intraversal"} {
					mustExec(t, sess, "SET filter_strategy = "+strat)
					got := ids(t, mustExec(t, sess, q))
					if len(got) != len(want) {
						t.Fatalf("sel=%d%% strategy=%s: %d rows, single node %d", selPct, strat, len(got), len(want))
					}
					wantSet := map[int32]bool{}
					for _, id := range want {
						wantSet[id] = true
					}
					for _, id := range got {
						if !wantSet[id] {
							t.Errorf("sel=%d%% strategy=%s: id %d outside single-node top-%d %v", selPct, strat, id, k, want)
						}
						if int(id)%100 >= selPct {
							t.Errorf("sel=%d%% strategy=%s: id %d violates %s", selPct, strat, id, where)
						}
					}
				}
			}

			// A zero-match predicate must come back empty, not hang or error.
			mustExec(t, sess, "SET filter_strategy = post")
			res := mustExec(t, sess, "SELECT id FROM t WHERE attr = 777 ORDER BY vec <-> '{1, 1, 0, 0}' LIMIT 5")
			if len(res.Rows) != 0 {
				t.Errorf("zero-match cluster query returned %d rows", len(res.Rows))
			}
		})
	}
}

// TestBatchKnobReplay proves the coalescing knobs ride the router's
// SET-replay machinery end to end: the router session records them,
// SHOW answers locally, and the replayed knob makes the shard servers
// actually coalesce (their SHOW server_stats batch counters move).
func TestBatchKnobReplay(t *testing.T) {
	h := newHarness(t, 1, 1)
	sess := h.router(Config{}).NewSession()
	loadLine(t, sess, 120)

	mustExec(t, sess, "SET batch_window = 500")
	mustExec(t, sess, "SET batch_max = 8")
	if res := mustExec(t, sess, "SHOW batch_window"); res.Rows[0][0].(string) != "500" {
		t.Errorf("router SHOW batch_window = %v", res.Rows[0][0])
	}
	if _, err := sess.Execute("SET batch_window = -5"); err == nil {
		t.Error("router accepted SET batch_window = -5")
	}

	got := ids(t, mustExec(t, sess, "SELECT id FROM t ORDER BY vec <-> '{40, 40, 0, 0}' LIMIT 3"))
	if len(got) != 3 || got[0] != 40 {
		t.Errorf("scatter-gather with batch_window set: got %v, want nearest 40", got)
	}

	// The shard executed that query with the replayed window, so its
	// coalescer flushed at least one (single-member) probe.
	probed := false
	for shard := range h.servers {
		c, err := client.Dial(h.servers[shard][0].Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute("SHOW server_stats")
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[0].(string) == "batch_probes" {
				if n, err := strconv.ParseInt(fmt.Sprint(row[1]), 10, 64); err == nil && n > 0 {
					probed = true
				}
			}
		}
	}
	if !probed {
		t.Error("no shard coalescer flushed a probe; batch_window replay did not reach the shards")
	}
}

// TestRejectedScanKnobNotReplayed: the router validates a scan knob at
// record time, so a bad value is that SET's error and is never recorded
// — recorded, it would be replayed onto every shard connection and
// fail (or silently skew) each later kNN of the session there.
func TestRejectedScanKnobNotReplayed(t *testing.T) {
	h := newHarness(t, 1, 1)
	rs := h.router(Config{HealthInterval: -1}).NewSession()
	loadLine(t, rs, 120)
	mustExec(t, rs, "SET nprobe = 8")
	for _, bad := range []string{"SET nprobe = abc", "SET efs = x", "SET threads = -3", "SET heap = foo"} {
		if _, err := rs.Execute(bad); err == nil {
			t.Errorf("router accepted %s", bad)
		}
	}
	sess := rs.(*Session)
	if len(sess.sets) != 1 || sess.sets[0].Value != "8" {
		t.Errorf("recorded SETs = %+v, want only nprobe = 8", sess.sets)
	}
	if res := mustExec(t, rs, "SHOW nprobe"); res.Rows[0][0].(string) != "8" {
		t.Errorf("router SHOW nprobe = %v, want 8", res.Rows[0][0])
	}
	// Replays the recorded SETs onto both shard connections first.
	got := ids(t, mustExec(t, rs, "SELECT id FROM t ORDER BY vec <-> '{40, 40, 0, 0}' LIMIT 3"))
	if len(got) != 3 || got[0] != 40 {
		t.Errorf("kNN after rejected SETs: got %v, want nearest 40", got)
	}
}

// TestClusterDynamicParity broadcasts DELETE/UPDATE/VACUUM through the
// router at 2 and 4 shards and demands (a) mutation counts sum across
// shards, (b) post-churn kNN answers match a single-node database that
// applied the identical statements, and (c) deleted rows are invisible
// through the scatter-gather path.
func TestClusterDynamicParity(t *testing.T) {
	const n, k = 120, 10
	churn := []string{
		"DELETE FROM t WHERE id < 30",
		"UPDATE t SET vec = '{-4, -4, 0, 0}' WHERE id = 100",
		"DELETE FROM t WHERE id = 57",
	}
	queries := []string{
		"SELECT id FROM t ORDER BY vec <-> '{0, 0, 0, 0}' LIMIT %d",
		"SELECT id FROM t ORDER BY vec <-> '{-4.1, -4.1, 0, 0}' LIMIT %d",
		"SELECT id FROM t ORDER BY vec <-> '{57, 57, 0, 0}' LIMIT %d",
	}

	// Single-node reference applying the same load and churn.
	ref, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	refSess := sql.NewSession(ref)
	loadLine(t, refSess, n)
	mustExec(t, refSess, "SET nprobe = 8")
	for _, q := range churn {
		mustExec(t, refSess, q)
	}
	var want [][]int32
	for _, q := range queries {
		want = append(want, ids(t, mustExec(t, refSess, fmt.Sprintf(q, k))))
	}

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reps := make([]int, shards)
			for i := range reps {
				reps[i] = 1
			}
			h := newHarness(t, reps...)
			r := h.router(Config{HealthInterval: -1})
			sess := r.NewSession()
			loadLine(t, sess, n)
			mustExec(t, sess, "SET nprobe = 8")

			// Broadcast counts must sum to the global row counts.
			if res := mustExec(t, sess, churn[0]); res.Msg != "DELETE 30" {
				t.Errorf("broadcast delete msg = %q, want \"DELETE 30\"", res.Msg)
			}
			if res := mustExec(t, sess, churn[1]); res.Msg != "UPDATE 1" {
				t.Errorf("broadcast update msg = %q, want \"UPDATE 1\"", res.Msg)
			}
			if res := mustExec(t, sess, churn[2]); res.Msg != "DELETE 1" {
				t.Errorf("broadcast delete msg = %q, want \"DELETE 1\"", res.Msg)
			}

			check := func(stage string) {
				t.Helper()
				for i, q := range queries {
					got := ids(t, mustExec(t, sess, fmt.Sprintf(q, k)))
					// Set comparison: equidistant rows may tie-break
					// differently in the scatter-gather merge.
					gotSet := append([]int32(nil), got...)
					wantSet := append([]int32(nil), want[i]...)
					sort.Slice(gotSet, func(a, b int) bool { return gotSet[a] < gotSet[b] })
					sort.Slice(wantSet, func(a, b int) bool { return wantSet[a] < wantSet[b] })
					if fmt.Sprint(gotSet) != fmt.Sprint(wantSet) {
						t.Fatalf("%s q%d: got %v, want %v", stage, i, got, want[i])
					}
					for _, id := range got {
						if id < 30 || id == 57 {
							t.Fatalf("%s q%d: deleted id %d visible", stage, i, id)
						}
					}
				}
				// Global count excludes the 31 deleted rows.
				if res := mustExec(t, sess, "SELECT count(*) FROM t"); res.Rows[0][0].(int64) != n-31 {
					t.Fatalf("%s count(*) = %v, want %d", stage, res.Rows[0][0], n-31)
				}
			}
			check("churned")

			// VACUUM broadcasts to every shard; answers are unchanged.
			mustExec(t, sess, "VACUUM t")
			check("vacuumed")
		})
	}
}

// TestClusterDeleteReachesAllReplicas checks mutation replication: with
// 2 replicas on one shard, a broadcast DELETE must land on both, so a
// failover to the second replica never resurrects the row.
func TestClusterDeleteReachesAllReplicas(t *testing.T) {
	h := newHarness(t, 2) // one shard, two replicas
	r := h.router(Config{HealthInterval: -1, ShardDeadline: 3 * time.Second})
	sess := r.NewSession()
	loadLine(t, sess, 40)
	mustExec(t, sess, "DELETE FROM t WHERE id < 10")

	for rep := 0; rep < 2; rep++ {
		c, err := client.Dial(h.m.Shards[0][rep])
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute("SELECT count(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].(int64); got != 30 {
			t.Errorf("replica %d holds %d rows after broadcast delete, want 30", rep, got)
		}
		c.Close()
	}

	// Kill the primary: the failover replica must agree the rows are gone.
	h.kill(0, 0)
	res := mustExec(t, sess, "SELECT id FROM t ORDER BY vec <-> '{0, 0, 0, 0}' LIMIT 5")
	for _, id := range ids(t, res) {
		if id < 10 {
			t.Errorf("failover replica returned deleted id %d", id)
		}
	}
	if st := r.Stats(); st.Failovers == 0 {
		t.Errorf("expected a failover after kill: %+v", st)
	}
}
