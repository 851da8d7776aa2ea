package sql

import (
	"fmt"
	"time"

	"vecstudy/internal/minheap"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
)

// batch.go is the SQL side of server-side batched kNN execution: a
// vector search is split into a plan step (VectorQuery) and a run step,
// so the query coalescer (internal/batch) can hold planned queries for a
// SET batch_window and execute a whole group as one multi-query probe.
// Grouping is by GroupKey — same table, ORDER BY column, access method,
// filter strategy, query dimensionality, and effective session settings
// — because only then does one am.Index.Scan (or one shared exact scan)
// reproduce every member's solo execution byte for byte.

// BatchWindowSetting and BatchMaxSetting are the session knobs steering
// query coalescing: the former is the window, in microseconds, a
// batchable query waits for same-group company (0 disables coalescing);
// the latter caps how many queries one multi-query probe may carry.
const (
	BatchWindowSetting = "batch_window"
	BatchMaxSetting    = "batch_max"
)

// BatchWindowMaxMicros bounds SET batch_window: one second expressed in
// the knob's own unit. A coalescing window is a latency tax paid on the
// first query of every batch, so the knob refuses values that would turn
// a tail-latency knob into a stall.
const BatchWindowMaxMicros = 1000000

// BatchMaxLimit bounds SET batch_max. Beyond ~1k queries a probe's
// candidate buffers dwarf the page-pin savings, and the admission layer
// should shed load instead.
const BatchMaxLimit = 1024

// VectorQuery is a planned-but-unexecuted vector search: everything
// decided before touching the index or heap, captured so the coalescer
// can group it with concurrently planned queries. Run executes it solo;
// MultiRun executes a whole group.
type VectorQuery struct {
	s       *Session
	st      *SelectStmt
	tbl     *heap.Table
	outCols []int
	cols    []string
	pred    *compiledPred
	plan    filterPlan
	idx     am.Index
	vcol    int
	k       int
}

// planVector plans a vector search: resolve the vector column, fix k,
// look up the index, and pick the filter strategy. A k == 0 query skips
// planning entirely and its Run returns the empty result without
// touching the planner.
func (s *Session) planVector(st *SelectStmt, tbl *heap.Table, outCols []int, pred *compiledPred) (*VectorQuery, error) {
	schema := tbl.Schema()
	vcol := schema.ColIndex(st.OrderCol)
	if vcol < 0 || schema.Cols[vcol].Type != heap.Float4Array {
		return nil, fmt.Errorf("sql: ORDER BY column %q is not a vector column", st.OrderCol)
	}
	k := st.Limit
	if !st.HasLimit {
		k = int(tbl.NTuples())
	}
	q := &VectorQuery{
		s:       s,
		st:      st,
		tbl:     tbl,
		outCols: outCols,
		cols:    colNames(outCols, schema, st),
		pred:    pred,
		vcol:    vcol,
		k:       k,
	}
	if k == 0 {
		return q, nil
	}
	q.idx = s.db.IndexOn(st.Table, st.OrderCol)
	plan, err := s.planFilter(tbl, q.idx, pred)
	if err != nil {
		return nil, err
	}
	q.plan = plan
	return q, nil
}

// Run executes the query solo: a MultiRun of one.
func (q *VectorQuery) Run() (*Result, error) {
	res, err := MultiRun([]*VectorQuery{q})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Batchable reports whether the query may join a coalescing batch, with
// a human-readable reason when it may not. Unbatchable shapes: no LIMIT
// (k is the table size — nothing to amortize), count(*), the post-filter
// strategy (its over-fetch-and-refill loop is adaptive per query), and
// threads > 1 (the RC#3 shared-heap path owns the worker pool;
// coalescing it would serialize what the session asked to parallelize).
func (q *VectorQuery) Batchable() (bool, string) {
	if q.st.CountStar {
		return false, "count(*)"
	}
	if !q.st.HasLimit {
		return false, "no LIMIT"
	}
	if q.k <= 0 {
		return false, "LIMIT 0"
	}
	if q.plan.strategy == FilterPost {
		return false, "post-filter strategy"
	}
	if q.idx != nil && q.plan.strategy != FilterPre && q.s.set.scan.Threads > 1 {
		return false, "threads > 1"
	}
	return true, ""
}

// GroupKey identifies a coalescing group: queries with equal keys are
// guaranteed to produce solo-identical results when executed as one
// multi-query probe. It is comparable (the coalescer's map key) and
// compares parsed values, so a session that SET nprobe = 20 groups with
// one that left the default. AM is "exact" for plans that never touch an
// index (no index, or the pre-filter strategy), and the query's own
// dimensionality is part of the key so a dimension-mismatch error stays
// confined to the queries that would have failed solo. Different WHERE
// predicates may share a group — the strategy component keeps each group
// uniformly filtered or uniformly not.
type GroupKey struct {
	Table, Column, AM string
	Strategy          FilterStrategy
	Dim               int
	set               settings
}

// String renders the key for EXPLAIN's "Batchable: yes (group …)" line.
func (k GroupKey) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|d=%d|%s", k.Table, k.Column, k.AM, k.Strategy, k.Dim, k.set.render())
}

// GroupKey returns the query's coalescing group.
func (q *VectorQuery) GroupKey() GroupKey {
	amName := "exact"
	if q.idx != nil && q.plan.strategy != FilterPre {
		amName = q.idx.AM()
	}
	return GroupKey{q.st.Table, q.st.OrderCol, amName, q.plan.strategy, len(q.st.QueryVec), q.s.set}
}

// Params renders every known setting at its effective value — the
// pre-ScanOpts knob map. It is kept only because the benchmark/ module
// (which a code PR may not edit) reads it to replay a statement's index
// search; delete it with the benchmark-only follow-up of ROADMAP item 1.
func (q *VectorQuery) Params() map[string]string {
	out := make(map[string]string, len(knownSettings))
	for _, st := range knownSettings {
		out[st.Name] = q.s.effective(st.Name)
	}
	return out
}

// Finish materializes index hits into the query's projected result
// rows — the one hits→rows loop. A hit whose heap tuple has died since
// the index entry was written is dropped: the executor's visibility
// re-check, the last line of defense against a stale index TID.
func (q *VectorQuery) Finish(hits []am.Result) (*Result, error) {
	res := &Result{Cols: q.cols}
	schema := q.tbl.Schema()
	for _, h := range hits {
		_, err := q.tbl.GetVisible(h.TID, func(tup []byte) error {
			vals, err := schema.Decode(tup)
			if err == nil {
				res.Rows = append(res.Rows, project(vals, q.outCols, h.Dist))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// BatchKnobs returns the session's coalescing window (0 disables
// coalescing) and the cap on queries per multi-query probe.
func (s *Session) BatchKnobs() (window time.Duration, max int) {
	return s.set.batchWindow, s.set.batchMax
}

// ExecuteOrPlan parses and runs one statement like Execute, except that
// a vector search is returned as a planned, unexecuted *VectorQuery
// (with a nil *Result) for the caller to coalesce or Run. Every other
// statement executes to completion exactly as Execute would.
func (s *Session) ExecuteOrPlan(text string) (*Result, *VectorQuery, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, nil, err
	}
	if sel, ok := stmt.(*SelectStmt); ok {
		return s.runSelect(sel)
	}
	res, err := s.run(stmt)
	return res, nil, err
}

// MultiRun executes a group of same-GroupKey queries as one multi-query
// probe and returns each query's Result in order; a solo Run is a group
// of one. Index groups are one am.Index.Scan; exact groups share one
// heap pass (multiExact); post-filter members (never coalesced — see
// Batchable) each run their own refill loop. An error anywhere fails the
// whole group — every member observes it, which for uniform-key groups
// is the error each solo run would have raised (dimension mismatches
// are keyed into their own group) or a heap-access failure no member
// could have dodged.
func MultiRun(qs []*VectorQuery) ([]*Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	lead := qs[0]
	// One shared read hold for the whole group: members target the same
	// table (it is in the group key) and therefore the same database.
	lead.s.db.StmtGate().RLock()
	defer lead.s.db.StmtGate().RUnlock()
	for _, q := range qs {
		q.s.lastFilter = execTrace{strategy: q.plan.strategy}
	}

	hits := make([][]am.Result, len(qs))
	var err error
	switch {
	case lead.k == 0: // LIMIT 0 was never planned and is never coalesced
	case lead.idx == nil || lead.plan.strategy == FilterPre:
		hits, err = multiExact(qs)
	case lead.plan.strategy == FilterPost:
		for i, q := range qs {
			if hits[i], err = q.postFilterSearch(); err != nil {
				break
			}
		}
	default:
		queries := make([]am.Query, len(qs))
		for i, q := range qs {
			queries[i] = am.Query{Vec: q.st.QueryVec, K: q.k}
			if q.plan.strategy == FilterInTraversal {
				queries[i].Pred = predicateFor(q.tbl, q.pred)
			}
		}
		// The settings are part of the group key, so the lead's are
		// every member's.
		hits, err = lead.idx.Scan(queries, &lead.s.set.scan)
	}
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(qs))
	for i, q := range qs {
		if out[i], err = q.Finish(hits[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// multiExact is the brute-force path — the no-index fallback and the
// pre-filter strategy — for a group (solo: a group of one): one shared
// heap pass, each member's predicate pushed below the distance
// computation, survivors ranked in bounded top-k heaps. Per tuple the row
// is decoded at most once and the vector materialized at most once, then
// fanned out to every member whose predicate admits it. Each member
// keeps its own heap and its own ordinal counter over its admitted rows,
// so heap IDs — and therefore distance-tie ordering — are the same push
// for push however the group is composed.
func multiExact(qs []*VectorQuery) ([][]am.Result, error) {
	lead := qs[0]
	tbl := lead.tbl
	schema := tbl.Schema()
	// distance_kernel is part of the group key, so the lead's is every
	// member's.
	kern := lead.s.set.scan.Kernel

	tops := make([]*minheap.TopK, len(qs))
	tids := make([][]heap.TID, len(qs))
	for i, q := range qs {
		tops[i] = minheap.NewTopK(q.k)
	}
	err := tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		var vals []any
		var v []float32
		for i, q := range qs {
			if q.pred != nil {
				if vals == nil {
					var err error
					if vals, err = schema.Decode(tup); err != nil {
						return false, err
					}
				}
				if !q.pred.eval(vals) {
					continue
				}
			}
			if v == nil {
				var err error
				if v, err = schema.VectorAt(tup, lead.vcol); err != nil {
					return false, err
				}
				// Group members share query dimensionality (it is in the
				// key), so one check stands for all — and fires only on a
				// tuple some member admits, exactly as solo.
				if len(v) != len(q.st.QueryVec) {
					return false, fmt.Errorf("sql: query vector has %d dims, column %q has %d", len(q.st.QueryVec), q.st.OrderCol, len(v))
				}
			}
			tops[i].Push(int64(len(tids[i])), kern.L2Sqr(q.st.QueryVec, v))
			tids[i] = append(tids[i], tid)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]am.Result, len(qs))
	for i := range qs {
		items := tops[i].Results()
		hits := make([]am.Result, len(items))
		for j, it := range items {
			hits[j] = am.Result{TID: tids[i][it.ID], Dist: it.Dist}
		}
		out[i] = hits
	}
	return out, nil
}
