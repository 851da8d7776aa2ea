package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"vecstudy/internal/batch"
	"vecstudy/internal/core"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/pg/storage"
	"vecstudy/internal/vec"
)

// session opens an in-process SQL session with the workload's settings.
func (s *stack) session() (*sql.Session, error) {
	sess := sql.NewSession(s.db)
	for _, set := range s.w.sets {
		if _, err := sess.Execute(set); err != nil {
			return nil, fmt.Errorf("%s: %w", set, err)
		}
	}
	return sess, nil
}

// perStatement times fn once per statement, in µs.
func perStatement(c *corpus, fn func(st stmt) error) ([]float64, error) {
	lat := make([]float64, 0, len(c.stmts))
	for _, st := range c.stmts {
		t0 := time.Now()
		if err := fn(st); err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return lat, nil
}

// quietPass sends one cycle of the statements on a single connection with
// nothing else running, then the same statements through an in-process
// batch.Session. What the server, the wire and the loopback add is the
// median over the statements of the gap between the two — paired, because
// the statements of filtered_mix fall into classes milliseconds apart. The
// buffer pool's counters over the wire cycle are exact: one client is the
// only thing touching the pool. It returns the wire latencies.
func quietPass(s *stack, c *corpus, m map[string]float64) ([]float64, error) {
	pool := s.db.Pool()
	before := pool.Stats()
	remote, err := perStatement(c, func(st stmt) error {
		_, err := s.conns[0].Execute(st.sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	after := pool.Stats()
	n := float64(len(c.stmts))
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	m["buffer.pins_per_query"] = (hits + misses) / n
	m["buffer.misses_per_query"] = misses / n
	m["buffer.evictions_per_query"] = float64(after.Evictions-before.Evictions) / n
	if hits+misses > 0 {
		m["buffer.hit_rate"] = hits / (hits + misses)
	}

	inner, err := s.session()
	if err != nil {
		return nil, err
	}
	session := batch.NewSession(inner, batch.NewCoalescer())
	local, err := perStatement(c, func(st stmt) error {
		_, err := session.Execute(st.sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	gap := make([]float64, len(remote))
	for i := range gap {
		gap[i] = remote[i] - local[i]
	}
	m["server.overhead_us"] = median(gap)

	pings, err := perStatement(c, func(stmt) error { return s.conns[0].Ping() })
	m["client.ping_us"] = median(pings)
	return remote, err
}

// multiRun times sql.MultiRun on pairs of planned statements that the
// coalescer would put in one group, against running the two solo.
func multiRun(s *stack, c *corpus, m map[string]float64) error {
	a, err := s.session()
	if err != nil {
		return err
	}
	b, err := s.session()
	if err != nil {
		return err
	}
	// On filtered_mix only statements of the same selectivity class plan
	// to the same strategy, and they are len(filterBounds) apart.
	stride := 1
	if s.w.filtered {
		stride = len(filterBounds)
	}
	var pair []float64
	for i := 0; i+stride < len(c.stmts) && len(pair) < 100; i++ {
		_, qa, err := a.ExecuteOrPlan(c.stmts[i].sql)
		if err != nil {
			return err
		}
		_, qb, err := b.ExecuteOrPlan(c.stmts[i+stride].sql)
		if err != nil {
			return err
		}
		okA, _ := qa.Batchable()
		okB, _ := qb.Batchable()
		if !okA || !okB || qa.GroupKey() != qb.GroupKey() {
			continue
		}
		t0 := time.Now()
		if _, err := sql.MultiRun([]*sql.VectorQuery{qa, qb}); err != nil {
			return err
		}
		pair = append(pair, float64(time.Since(t0))/1e3)
	}
	m["batch.multirun_us"] = median(pair)
	if len(pair) > 0 {
		m["batch.amortization_x"] = 2 * m["sql.run_us"] / m["batch.multirun_us"]
	}
	return nil
}

// strategies asks EXPLAIN which filter strategy each statement plans to.
func strategies(s *stack, c *corpus, m map[string]float64) error {
	sess, err := s.session()
	if err != nil {
		return err
	}
	count := map[string]int{}
	for _, st := range c.stmts {
		res, err := sess.Execute("EXPLAIN " + st.sql)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			line, _ := row[0].(string)
			for _, name := range []string{"pre-filter", "post-filter", "in-traversal"} {
				if strings.Contains(line, "Filter:") && strings.Contains(line, "("+name+",") {
					count[name]++
				}
			}
		}
	}
	n := float64(len(c.stmts))
	m["sql.strategy_pre_share"] = float64(count["pre-filter"]) / n
	m["sql.strategy_post_share"] = float64(count["post-filter"]) / n
	m["sql.strategy_intraversal_share"] = float64(count["in-traversal"]) / n
	return nil
}

// perCall runs fn in batches of n calls and returns the median batch's
// nanoseconds per call.
func perCall(batches, n int, fn func(i int) error) (float64, error) {
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(b*n + i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), nil
}

// directCalls times single functions of the storage layers on the
// workload's own table, with the server idle.
func directCalls(s *stack, c *corpus, seed int64, m map[string]float64) error {
	tbl, err := s.table()
	if err != nil {
		return err
	}
	pool := s.db.Pool()
	rel := tbl.Rel()
	rng := rand.New(rand.NewSource(seed))

	// vec: the default kernel's batch form over groups the size of one
	// index page (an 8 KiB page holds 15 entries of 128 floats).
	const perPage = 15
	kern := vec.Default()
	rows := make([][]float32, perPage)
	out := make([]float32, perPage)
	pages := c.ds.N() / perPage
	nsPerPage, err := perCall(5, pages, func(i int) error {
		p := i % pages
		for j := range rows {
			rows[j] = c.ds.Base.Row(p*perPage + j)
		}
		kern.L2SqrBatch(c.stmts[i%len(c.stmts)].query, rows, out)
		return nil
	})
	if err != nil {
		return err
	}
	m["vec.ns_per_vec"] = nsPerPage / perPage
	m["vec.kernel_us"] = m["vec.ns_per_vec"] * m["ivfflat.tuples_scored"] / 1e3

	// heap: a full scan that does nothing per tuple, which also collects
	// the TIDs and one tuple for the calls below.
	var tids []heap.TID
	var sample []byte
	scan := func() error {
		tids = tids[:0]
		return tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
			tids = append(tids, tid)
			if sample == nil {
				sample = append([]byte(nil), tup...)
			}
			return true, nil
		})
	}
	scanNS, err := perCall(3, 1, func(int) error { return scan() })
	if err != nil {
		return err
	}
	m["heap.scan_ms"] = scanNS / 1e6
	schema := tbl.Schema()
	if m["heap.decode_ns"], err = perCall(5, 4000, func(int) error {
		_, err := schema.Decode(sample)
		return err
	}); err != nil {
		return err
	}
	if m["heap.get_visible_ns"], err = perCall(5, 4000, func(int) error {
		_, err := tbl.GetVisible(tids[rng.Intn(len(tids))], func([]byte) error { return nil })
		return err
	}); err != nil {
		return err
	}

	// buffer: a pin of a page that is resident, and — where the heap is
	// wider than the pool — a sweep in which every pin misses and evicts.
	pin := func(blk uint32) error {
		buf, err := pool.Pin(rel, blk)
		if err != nil {
			return err
		}
		buf.Release()
		return nil
	}
	if m["buffer.pin_ns"], err = perCall(5, 20000, func(int) error { return pin(0) }); err != nil {
		return err
	}
	blocks, err := pool.NumBlocks(rel)
	if err != nil {
		return err
	}
	if int(blocks) > 2*s.w.frames {
		if m["buffer.miss_ns"], err = perCall(3, int(blocks), func(i int) error { return pin(uint32(i) % blocks) }); err != nil {
			return err
		}
	}

	// storage: 8 KiB reads of the heap's file through a second handle.
	if s.w.onDisk {
		fs, err := storage.OpenFileStore(filepath.Join(s.dir, fmt.Sprintf("rel_%d", rel)), pool.PageSize())
		if err != nil {
			return err
		}
		defer fs.Close()
		page := make([]byte, pool.PageSize())
		if m["storage.read_ns"], err = perCall(5, 1000, func(int) error {
			return fs.ReadBlock(uint32(rng.Intn(int(blocks))), page)
		}); err != nil {
			return err
		}
	}
	return nil
}

// searchUS is the median direct Search over the query vectors, in µs.
func searchUS(c *corpus, search func(q []float32) error) (float64, error) {
	lat, err := perStatement(c, func(st stmt) error { return search(st.query) })
	return median(lat), err
}

// sideIndexes builds ivfpq and ivfsq8 over the same column and times their
// direct Search: the two access methods no workload serves. It runs last,
// because with three indexes on the column the planner may pick any.
func sideIndexes(s *stack, c *corpus, m map[string]float64) error {
	params := map[string]string{"nprobe": "20"}
	for _, side := range []struct{ metric, am string }{
		{"ivfpq.search_us", "ivfpq"},
		{"ivfsq8.search_us", "ivfsq8"},
	} {
		opts := map[string]string{"clusters": "141", "seed": "1"}
		if side.am == "ivfpq" {
			opts["m"], opts["ksub"] = "16", "64"
		}
		idx, err := s.db.CreateIndex("side_"+side.am, tableName, "vec", side.am, opts)
		if err != nil {
			return err
		}
		if m[side.metric], err = searchUS(c, func(q []float32) error {
			_, err := idx.Search(q, topK, params)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// faissGap builds the specialized (Faiss-style) index over the same rows
// with the same parameters and compares direct search times: the paper's
// headline ratio, which does not depend on the host.
func faissGap(s *stack, c *corpus, m map[string]float64) error {
	kind := core.IVFFlat
	if s.w.am == "hnsw" {
		kind = core.HNSW
	}
	p := core.Defaults(c.ds)
	p.K, p.C, p.NProbe, p.BNN, p.EFB, p.EFS, p.Seed = topK, 141, 20, 16, 40, 64, 1
	spec, _, err := core.BuildSpecialized(kind, c.ds, p)
	if err != nil {
		return err
	}
	if m["faiss.search_us"], err = searchUS(c, func(q []float32) error {
		_, err := spec.Search(q, topK)
		return err
	}); err != nil {
		return err
	}
	if m["faiss.search_us"] > 0 {
		m["faiss.search_gap_x"] = m["am.search_us"] / m["faiss.search_us"]
	}
	return nil
}
