package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/wire"
)

// interval is a span of the window, in nanoseconds from its start.
type interval struct{ start, end int64 }

// windowResult is what one timed window observed from the client side.
type windowResult struct {
	reads     []interval // completed kNN statements of every reader
	attempted int        // statements sent, reads and writes
	failed    int        // errors, refusals, timeouts and wrong row counts
	firstErr  error

	// Writer, churn_mixed only.
	writeLat  []float64  // ms from each write's due time to its reply
	late      []float64  // ms from due time to the moment it was sent
	exclusive []interval // DELETE, UPDATE and VACUUM executions, in order: they hold the statement gate exclusively
	vacuums   []float64  // ms per VACUUM
}

// note counts one statement sent and, when it failed, the failure.
func (r *windowResult) note(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// merge adds what another goroutine observed.
func (r *windowResult) merge(o *windowResult) {
	r.reads = append(r.reads, o.reads...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.writeLat, r.late = append(r.writeLat, o.writeLat...), append(r.late, o.late...)
	r.exclusive, r.vacuums = append(r.exclusive, o.exclusive...), append(r.vacuums, o.vacuums...)
}

// runWindow drives the stack's reader connections in a closed loop for d:
// each sends its next statement when the previous reply has arrived. With
// ops, an open-loop writer on its own connection sends each statement at
// its due time — or as soon after as the previous one allows — and the
// window lasts until the last write is answered.
func runWindow(s *stack, c *corpus, d time.Duration, ops []writeOp) (*windowResult, error) {
	res := &windowResult{}
	var stop atomic.Bool
	var mu sync.Mutex // guards res while the readers merge into it
	var wg sync.WaitGroup
	start := time.Now()

	for r, conn := range s.conns {
		wg.Add(1)
		go func(r int, conn *client.Conn) {
			defer wg.Done()
			mine := &windowResult{}
			// Readers start at different points of the statement cycle.
			for i := r * len(c.stmts) / len(s.conns); !stop.Load(); i++ {
				t0 := time.Since(start)
				out, err := conn.Execute(c.stmts[i%len(c.stmts)].sql)
				t1 := time.Since(start)
				if err == nil && len(out.Rows) != topK {
					err = &wire.Error{Code: wire.CodeError, Message: fmt.Sprintf("reader %d: %d rows, want %d", r, len(out.Rows), topK)}
				}
				mine.note(err)
				var refused *wire.Error
				switch {
				case err == nil:
					mine.reads = append(mine.reads, interval{int64(t0), int64(t1)})
				case !errors.As(err, &refused):
					stop.Store(true) // a transport error: the connection is gone, and the window with it
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.merge(mine)
		}(r, conn)
	}

	var writes *windowResult
	var err error
	if len(ops) > 0 {
		writes, err = runWriter(s, start, ops)
	}
	if rest := d - time.Since(start); rest > 0 && err == nil {
		time.Sleep(rest)
	}
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if writes != nil {
		res.merge(writes)
	}
	sort.Slice(res.reads, func(i, j int) bool { return res.reads[i].start < res.reads[j].start })
	return res, nil
}

// runWriter sends the schedule on a connection of its own and returns
// when the last statement is answered. A statement that fails is counted
// and the schedule goes on.
func runWriter(s *stack, start time.Time, ops []writeOp) (*windowResult, error) {
	conn, err := s.dial(nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	w := &windowResult{}
	send := func(sql string) (t0, t1 time.Duration) {
		t0 = time.Since(start)
		_, err := conn.Execute(sql)
		t1 = time.Since(start)
		if err != nil {
			err = fmt.Errorf("writer: %.40s: %w", sql, err)
		}
		w.note(err)
		return t0, t1
	}
	for i, op := range ops {
		if wait := op.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t0, t1 := send(op.sql)
		w.writeLat = append(w.writeLat, ms(t1-op.due))
		w.late = append(w.late, ms(t0-op.due))
		if op.kind != 'I' {
			w.exclusive = append(w.exclusive, interval{int64(t0), int64(t1)})
		}
		if (i+1)%vacuumEvery == 0 {
			t0, t1 := send("VACUUM " + tableName)
			w.vacuums = append(w.vacuums, ms(t1-t0))
			w.exclusive = append(w.exclusive, interval{int64(t0), int64(t1)})
		}
	}
	return w, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readStats are the reader-side timings of a window. The window is cut
// into windowSlices equal slices; each figure is the median over the slices
// of the slice's own figure, which a single scheduler or GC hiccup cannot
// move the way it moves one percentile taken over the whole window.
type readStats struct {
	qps, p50, p95, p99 float64
	samples            int // statements in the whole window
}

const windowSlices = 5

func (r *windowResult) readStats(d time.Duration) readStats {
	slice := int64(d) / windowSlices
	lat := make([][]float64, windowSlices)
	for _, iv := range r.reads {
		// A statement belongs to the slice it completed in; the tail past d
		// (a churn window outlasting its writes) is left out.
		if k := iv.end / slice; k < windowSlices {
			lat[k] = append(lat[k], float64(iv.end-iv.start)/1e6)
		}
	}
	var qps, p50, p95, p99 []float64
	st := readStats{}
	for _, l := range lat {
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		st.samples += len(l)
		qps = append(qps, float64(len(l))/(float64(slice)/1e9))
		p50 = append(p50, percentile(l, 0.50))
		p95 = append(p95, percentile(l, 0.95))
		p99 = append(p99, percentile(l, 0.99))
	}
	st.qps, st.p50, st.p95, st.p99 = median(qps), median(p50), median(p95), median(p99)
	return st
}

// gateStall splits the readers' latencies by whether the statement
// overlapped a writer statement that held the gate exclusively: the p99 of
// those that did, and the p50 of those that did not.
func (r *windowResult) gateStall() (stallP99, quietP50 float64) {
	ex := r.exclusive
	var stalled, quiet []float64
	for _, rd := range r.reads {
		// The writer is sequential, so its intervals are in order and apart:
		// the only one that can overlap the read is the last to start
		// before the read ends.
		j := sort.Search(len(ex), func(j int) bool { return ex[j].start >= rd.end })
		hit := j > 0 && ex[j-1].end > rd.start
		l := float64(rd.end-rd.start) / 1e6
		if hit {
			stalled = append(stalled, l)
		} else {
			quiet = append(quiet, l)
		}
	}
	sort.Float64s(stalled)
	sort.Float64s(quiet)
	return percentile(stalled, 0.99), percentile(quiet, 0.50)
}

// percentile is the nearest-rank p-quantile of sorted values, 0 if empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
