// Package batch is the query-coalescing layer between the server's
// admission control and the SQL executor: concurrently arriving kNN
// queries against the same (table, column, access method, strategy,
// settings) group wait for up to SET batch_window microseconds, then
// execute as one multi-query probe (sql.MultiRun) — centroid scoring
// becomes one SGEMM-shaped kernel call and bucket page pins are shared
// across the batch, while every session receives exactly the rows its
// solo execution would have produced.
//
// The trade is explicit: the first query of a batch pays up to the
// window in added latency to buy probe-level sharing for the whole
// group. batch_window = 0 (the default) disables coalescing entirely,
// and unbatchable queries (see sql.VectorQuery.Batchable) bypass the
// window and run solo.
package batch

import (
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/pg/sql"
)

// outcome is one coalesced query's delivery.
type outcome struct {
	res *sql.Result
	err error
}

// pending is one query waiting in a group. ch is buffered so the
// flushing goroutine never blocks on delivery.
type pending struct {
	q  *sql.VectorQuery
	ch chan outcome
}

// group collects same-key queries for one flush. The first submitter
// (the leader) fixes the group's window and size cap and arms its
// timer; the group flushes on whichever comes first — the timer or the
// cap — and exactly once (flushed guards the race between the two).
type group struct {
	co      *Coalescer
	key     sql.GroupKey
	max     int
	timer   *time.Timer
	members []*pending
	flushed bool
}

// Coalescer groups batchable vector queries by their sql GroupKey and
// executes each group as one multi-query probe. One coalescer serves a
// whole server; sessions funnel into it through batch.Session.
type Coalescer struct {
	mu     sync.Mutex
	groups map[sql.GroupKey]*group

	probes       atomic.Int64 // multi-query probes flushed
	batched      atomic.Int64 // queries served through a probe
	solo         atomic.Int64 // batchable queries run solo (batch_window = 0)
	unbatchable  atomic.Int64 // vector queries whose shape cannot batch
	maxBatchSeen atomic.Int64 // largest probe flushed
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{groups: make(map[sql.GroupKey]*group)}
}

// Submit parks q in its group until the group flushes, then returns q's
// own share of the multi-query probe. It blocks the calling session's
// goroutine — which is what keeps sessions single-threaded: the session
// cannot issue another statement while one is coalescing.
func (c *Coalescer) Submit(q *sql.VectorQuery, window time.Duration, max int) (*sql.Result, error) {
	p := &pending{q: q, ch: make(chan outcome, 1)}
	key := q.GroupKey()

	c.mu.Lock()
	g, ok := c.groups[key]
	if !ok {
		g = &group{co: c, key: key, max: max}
		c.groups[key] = g
		g.timer = time.AfterFunc(window, g.flushByTimer)
	}
	g.members = append(g.members, p)
	full := len(g.members) >= g.max
	if full {
		g.flushed = true
		delete(c.groups, key)
	}
	c.mu.Unlock()

	if full {
		// Flush-by-cap executes on this submitter's goroutine; the timer
		// may still fire but finds the group detached and does nothing.
		g.timer.Stop()
		g.execute()
	}
	out := <-p.ch
	return out.res, out.err
}

// flushByTimer detaches the group when its window closes; the loser of
// the race with a flush-by-cap (or a later same-key leader's map slot)
// sees flushed and backs off.
func (g *group) flushByTimer() {
	g.co.mu.Lock()
	if g.flushed {
		g.co.mu.Unlock()
		return
	}
	g.flushed = true
	delete(g.co.groups, g.key)
	g.co.mu.Unlock()
	g.execute()
}

// execute runs the detached group as one probe and delivers each
// member's outcome. No lock is held: the group is out of the map and
// flushed, so members is immutable here.
func (g *group) execute() {
	qs := make([]*sql.VectorQuery, len(g.members))
	for i, p := range g.members {
		qs[i] = p.q
	}
	results, err := sql.MultiRun(qs)

	c := g.co
	c.probes.Add(1)
	c.batched.Add(int64(len(qs)))
	for {
		old := c.maxBatchSeen.Load()
		if int64(len(qs)) <= old || c.maxBatchSeen.CompareAndSwap(old, int64(len(qs))) {
			break
		}
	}
	for i, p := range g.members {
		if err != nil {
			p.ch <- outcome{nil, err}
		} else {
			p.ch <- outcome{results[i], nil}
		}
	}
}

// StatsRows contributes the coalescing counters to SHOW server_stats.
func (c *Coalescer) StatsRows() [][]any {
	return [][]any{
		{"batch_probes", c.probes.Load()},
		{"batch_queries_batched", c.batched.Load()},
		{"batch_queries_solo", c.solo.Load()},
		{"batch_queries_unbatchable", c.unbatchable.Load()},
		{"batch_max_size", c.maxBatchSeen.Load()},
	}
}
