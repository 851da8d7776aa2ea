package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
)

// options are what one run is made from.
type options struct {
	seed    int64
	seconds float64 // the timed window
	rows    int     // rows of a 20,000-row workload; smaller workloads shrink in proportion
	trace   string  // "0": end-to-end metrics only; "1": per-layer metrics, one set-up; "both"
	work    string  // where file-backed databases live for the length of a run
	out     string  // where span files go; "" writes none
}

const setupReps = 3 // set-ups per run; setup_s is their median

// churn is the writer's schedule and what was on disk before it ran.
type churn struct {
	ops              []writeOp
	userBytes        int64 // bytes of row data the schedule inserts or updates
	walBefore        int64 // size of the WAL after set-up
	pageWritesBefore int64 // the pool's dirty write-backs after set-up
}

// runResult is one workload's run.
type runResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"` // output checks that failed
	Reads     int                `json:"read_samples"`       // kNN statements timed in the window
	Writes    int                `json:"write_samples"`      // writer statements timed in the window
	Metrics   map[string]float64 `json:"-"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload sets the workload's database up, drives the timed window
// with tracing off, checks the outputs and — unless trace is "0" — makes
// the traced pass and the direct per-layer calls on the same database.
func runWorkload(w workload, o options) (*runResult, error) {
	res := &runResult{Metrics: map[string]float64{}}
	m := res.Metrics
	c, err := newCorpus(w, w.rows*o.rows/fullRows, o.seed)
	if err != nil {
		return nil, err
	}

	reps := setupReps
	if o.trace == "1" {
		reps = 1
	}
	var s *stack
	var setups, builds []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		dir := ""
		if w.onDisk {
			dir = filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", w.Name, os.Getpid(), i))
		}
		if s, err = setUp(w, c, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.setupDur.Seconds())
		builds = append(builds, s.indexDur.Seconds())
	}
	defer s.close()
	m["setup_s"], m["am.build_s"] = median(setups), median(builds)

	c.inserts = nil // the loaded text is the benchmark's, not the engine's
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["mem_mb"] = float64(ms.HeapInuse) / (1 << 20)
	heapBytes, indexBytes, err := s.storedBytes()
	if err != nil {
		return nil, err
	}
	m["am.index_mb"] = float64(indexBytes) / (1 << 20)
	m["space_amp"] = float64(heapBytes+indexBytes) / float64(4*c.ds.Dim*c.ds.N())

	mdl := c.initialModel()
	ch := churn{walBefore: s.walSize(), pageWritesBefore: s.db.Pool().Stats().Writes}
	if w.writer {
		ch.ops, ch.userBytes = churnSchedule(c, &mdl, o.seed, o.seconds) // mdl is now the table after the window
	}

	window := time.Duration(o.seconds * float64(time.Second))
	if _, err := runWindow(s, c, min(2*time.Second, window/5), nil); err != nil { // warm-up
		return nil, err
	}
	statsBefore, err := s.serverStats()
	if err != nil {
		return nil, err
	}
	lockWaits := s.db.Pool().Stats().LockWaits
	win, err := runWindow(s, c, window, ch.ops)
	if err != nil {
		return nil, err
	}
	lockWaits = s.db.Pool().Stats().LockWaits - lockWaits
	statsAfter, err := s.serverStats()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return statsAfter[name] - statsBefore[name] }

	res.Attempted, res.Failed = win.attempted, win.failed
	if win.firstErr != nil {
		res.problem("window: %v", win.firstErr)
	}
	rs := win.readStats(window)
	res.Reads, res.Writes = rs.samples, len(win.writeLat)
	m["qps"], m["p50_ms"], m["p95_ms"], m["p99_ms"] = rs.qps, rs.p50, rs.p95, rs.p99
	if w.writer {
		sort.Float64s(win.writeLat)
		sort.Float64s(win.late)
		m["write_p50_ms"], m["write_p99_ms"] = percentile(win.writeLat, 0.50), percentile(win.writeLat, 0.99)
		m["bench.gen_late_ms"] = percentile(win.late, 0.99)
		m["maintenance.vacuum_ms"] = median(win.vacuums)
		m["db.gate_stall_ms"], m["db.read_p50_quiet_ms"] = win.gateStall()
	}
	m["maintenance.dead_reclaimed"] = delta("vacuum_dead_reclaimed")
	m["maintenance.index_repairs"] = delta("index_repairs")
	m["buffer.lock_waits"] = float64(lockWaits)
	if probes := delta("batch_probes"); probes > 0 {
		m["batch.mean_size"] = delta("batch_queries_batched") / probes
	}
	if all := delta("batch_queries_batched") + delta("batch_queries_solo") + delta("batch_queries_unbatchable"); all > 0 {
		m["batch.solo_share"] = delta("batch_queries_solo") / all
	}
	st := s.srv.Stats()
	m["server.rejected"], m["server.timeouts"], m["server.errors"] = float64(st.Rejected), float64(st.Timeouts), float64(st.Errors)

	if err := checkOutputs(s, c, mdl, res); err != nil {
		return nil, err
	}
	if o.trace != "0" {
		if err := tracePhase(s, c, o, res); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	if w.writer {
		if err := reopenCheck(s, c, mdl, res, ch); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
	}
	m["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// idColumn pulls the ids out of a result whose first column is id.
func idColumn(rows [][]any) []int {
	ids := make([]int, len(rows))
	for i, row := range rows {
		id, _ := row[0].(int32)
		ids[i] = int(id)
	}
	return ids
}

// checkOutputs runs every statement once more with nothing else going on:
// the rows must be the rows an in-process session returns (every tenth
// statement is compared), recall against brute force over the rows the
// statement may see must reach the workload's floor, and after churn the
// table must hold exactly the rows of the benchmark's model.
func checkOutputs(s *stack, c *corpus, mdl model, res *runResult) error {
	sess, err := s.session()
	if err != nil {
		return err
	}
	var recall float64
	for i, st := range c.stmts {
		res.Attempted++
		out, err := s.conns[0].Execute(st.sql)
		if err != nil {
			res.Failed++
			res.problem("check statement %d: %v", i, err)
			continue
		}
		recall += recallOf(idColumn(out.Rows), mdl.exactTopK(st))
		if i%10 == 0 {
			local, err := sess.Execute(st.sql)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(out.Rows, local.Rows) {
				res.Failed++
				res.problem("statement %d: rows over the wire differ from the in-process session's", i)
			}
		}
	}
	recall /= float64(len(c.stmts))
	res.Metrics["recall_at_10"] = recall
	if recall < s.w.recallFloor {
		res.problem("recall_at_10 %.4f is under the floor %.2f", recall, s.w.recallFloor)
	}
	if s.w.writer {
		res.Attempted++
		out, err := s.conns[0].Execute("SELECT id FROM " + tableName)
		if err != nil {
			return err
		}
		if n := mismatch(idColumn(out.Rows), mdl); n > 0 {
			res.Failed++
			res.problem("after the window %d rows differ from the model", n)
		}
	}
	return nil
}

// mismatch counts ids that are in the table but not in the model, or in
// the model but not in the table.
func mismatch(ids []int, mdl model) int {
	live := mdl.liveIDs()
	n := 0
	for _, id := range ids {
		if !live[id] {
			n++
		}
		delete(live, id)
	}
	return n + len(live)
}

// tracePhase takes the per-layer metrics that need the served stack.
func tracePhase(s *stack, c *corpus, o options, res *runResult) error {
	m := res.Metrics
	quiet, err := quietPass(s, c, m)
	if err != nil {
		return err
	}
	tr, tuples, err := tracedPass(s, c, time.Duration(o.seconds*float64(time.Second))/2)
	if err != nil {
		return err
	}
	m["ivfflat.tuples_scored"] = tuples
	tr.summarize(m, quiet)
	if o.out != "" {
		if err := tr.writeFile(filepath.Join(o.out, "trace_"+s.w.Name+".jsonl")); err != nil {
			return err
		}
	}
	if err := multiRun(s, c, m); err != nil {
		return err
	}
	if m["batch.mean_size"] > 0 {
		m["batch.wait_us"] = m["p50_ms"]*1e3 - m["batch.multirun_us"]
	}
	if err := strategies(s, c, m); err != nil {
		return err
	}
	if err := directCalls(s, c, o.seed, m); err != nil {
		return err
	}
	if search := m["am.search_us"]; search > 0 {
		m["vec.kernel_share"] = m["vec.kernel_us"] / search
		m["buffer.pin_share"] = m["buffer.pins_per_query"] * m["buffer.pin_ns"] / 1e3 / search
	}
	if s.w.faissGap {
		if err := faissGap(s, c, m); err != nil {
			return err
		}
	}
	if s.w.sideIndexes {
		return sideIndexes(s, c, m)
	}
	return nil
}

func (s *stack) walSize() int64 {
	info, err := os.Stat(filepath.Join(s.dir, "wal.log"))
	if err != nil {
		return 0
	}
	return info.Size()
}

// reopenCheck closes the database — which is when the engine's own flush
// policy writes the window's pages and syncs the log — reopens the
// directory, runs the first kNN statement and compares the surviving rows
// with the model.
func reopenCheck(s *stack, c *corpus, mdl model, res *runResult, ch churn) error {
	m := res.Metrics
	if err := s.stopServing(); err != nil {
		return err
	}
	pool := s.db.Pool()
	old := s.db
	s.db = nil
	if err := old.Close(); err != nil {
		return err
	}
	walBytes := s.walSize() - ch.walBefore
	pageBytes := (pool.Stats().Writes - ch.pageWritesBefore) * int64(pool.PageSize())
	if len(ch.ops) > 0 && ch.userBytes > 0 {
		m["wal.bytes_per_write"] = float64(walBytes) / float64(len(ch.ops))
		m["storage.write_amp"] = float64(walBytes+pageBytes) / float64(ch.userBytes)
	}

	start := time.Now()
	d, err := db.Open(s.w.dbConfig(s.dir))
	if err != nil {
		return err
	}
	s.db = d // closed with the stack
	sess := sql.NewSession(d)
	if _, err := sess.Execute(c.stmts[0].sql); err != nil {
		return err
	}
	m["db.reopen_ms"] = ms(time.Since(start))
	out, err := sess.Execute("SELECT id FROM " + tableName)
	if err != nil {
		return err
	}
	n := mismatch(idColumn(out.Rows), mdl)
	m["db.reopen_mismatch_rows"] = float64(n)
	res.Attempted++
	if n > 0 {
		res.Failed++
		res.problem("after reopen %d rows differ from the model", n)
	}
	return nil
}
