package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"vecstudy/internal/minheap"
	"vecstudy/internal/pase/ivfflat"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/vec"
	"vecstudy/internal/wire"
)

// span is one timed call into a layer. The spans of one statement share
// its number as trace id. Parent is the span that would contain this one
// inside the server: the root is the real request over the wire, and the
// others time the same statement replayed in-process, layer by layer, right
// after it — so a child lies after its parent in time, not inside it, and a
// layer's self time is its span less the sum of its children.
type span struct {
	Trace  int    `json:"trace_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root, or a probe outside the attribution tree
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const (
	rootSpan = "client.execute"
	// traceCycles bounds the traced pass: whole cycles of the statement
	// list, so that per-statement counts are the same however many ran.
	traceCycles = 5
)

// tracedPass sends a cycle of statements over the wire on one connection
// (the root spans) and then replays each through the public functions of
// each layer. It runs whole cycles until the budget is spent, five at most.
func tracedPass(s *stack, c *corpus, budget time.Duration) (tr *tracer, tuplesScored float64, err error) {
	idx, err := s.index()
	if err != nil {
		return nil, 0, err
	}
	flat, _ := idx.(*ivfflat.Index)
	sess, err := s.session()
	if err != nil {
		return nil, 0, err
	}
	conn := s.conns[0]
	tr = &tracer{t0: time.Now(), spans: make([]span, 0, traceCycles*len(c.stmts)*10)}
	var buf bytes.Buffer
	var emitted []minheap.Item
	statements, tuples := 0, 0

	roots := make([]int, len(c.stmts))
	remoteRows := make([]int, len(c.stmts))
	for cycle := 0; cycle < traceCycles && (cycle == 0 || time.Since(tr.t0) < budget); cycle++ {
		// The requests go out back to back, as a client's do. Replaying
		// between them would leave the server's goroutines to fall asleep
		// and charge every request the wake-up.
		for i, st := range c.stmts {
			roots[i] = tr.begin(statements+i+1, 0, rootSpan)
			remote, err := conn.Execute(st.sql)
			tr.end(roots[i])
			if err != nil {
				return nil, 0, fmt.Errorf("traced statement %d: %w", statements+i+1, err)
			}
			remoteRows[i] = len(remote.Rows)
		}
		for i, st := range c.stmts {
			statements++
			trace, root := statements, roots[i]

			id := tr.begin(trace, root, "wire.query_codec")
			buf.Reset()
			if err := wire.WriteFrame(&buf, wire.TQuery, wire.EncodeQuery(st.sql)); err != nil {
				return nil, 0, err
			}
			_, payload, err := wire.ReadFrame(&buf)
			if err != nil {
				return nil, 0, err
			}
			_ = wire.DecodeQuery(payload)
			tr.end(id)

			plan := tr.begin(trace, root, "sql.plan")
			_, vq, err := sess.ExecuteOrPlan(st.sql)
			tr.end(plan)
			if err != nil || vq == nil {
				return nil, 0, fmt.Errorf("traced statement %d did not plan as a vector query: %v", trace, err)
			}
			id = tr.begin(trace, plan, "sql.parse")
			_, err = sql.Parse(st.sql)
			tr.end(id)
			if err != nil {
				return nil, 0, err
			}

			run := tr.begin(trace, root, "sql.run")
			local, err := vq.Run()
			tr.end(run)
			if err != nil {
				return nil, 0, err
			}
			if len(local.Rows) != remoteRows[i] {
				return nil, 0, fmt.Errorf("traced statement %d: %d rows over the wire, %d replayed", trace, remoteRows[i], len(local.Rows))
			}

			// The bare index search is what Run calls on an unfiltered
			// statement. A filtered one takes another road through the
			// index (or none), so there the search is timed as a probe
			// outside the tree and Run keeps all of its time as self time.
			params := vq.Params()
			searchParent := run
			if st.bound > 0 {
				searchParent = 0
			}
			search := tr.begin(trace, searchParent, "am.search")
			_, err = idx.Search(st.query, topK, params)
			tr.end(search)
			if err != nil {
				return nil, 0, err
			}
			if flat != nil {
				kern, err := vec.ForName(params[sql.DistanceKernelSetting])
				if err != nil {
					return nil, 0, err
				}
				nprobe, err := strconv.Atoi(params["nprobe"])
				if err != nil {
					return nil, 0, err
				}
				// The emit callback only keeps the candidate, which is the
				// least it can do and still let the heap be replayed.
				emitted = emitted[:0]
				id = tr.begin(trace, search, "ivfflat.scan")
				err = flat.ScanProbes(kern, st.query, nprobe, func(tid heap.TID, dist float32) {
					emitted = append(emitted, minheap.Item{ID: int64(tid.Blk)<<16 | int64(tid.Off), Dist: dist})
				})
				tr.end(id)
				if err != nil {
					return nil, 0, err
				}
				tuples += len(emitted)
				// ivfflat's serial search (heap = n, the default) pushes
				// every candidate into a size-n collector and pops k (RC#6).
				id = tr.begin(trace, search, "minheap.push")
				col := minheap.NewCollector(1024)
				for _, it := range emitted {
					col.Push(it.ID, it.Dist)
				}
				col.PopK(topK)
				tr.end(id)
			}

			id = tr.begin(trace, root, "wire.result_codec")
			buf.Reset()
			if err := wire.WriteResult(&buf, &wire.Result{Cols: local.Cols, Rows: local.Rows, Msg: local.Msg}); err != nil {
				return nil, 0, err
			}
			if _, err := wire.ReadResult(&buf); err != nil {
				return nil, 0, err
			}
			tr.end(id)
		}
	}
	return tr, float64(tuples) / float64(statements), nil
}

// summarize turns the spans into the per-layer timings, each the median
// over the traced statements, in microseconds. quiet holds the untraced
// latency of each statement of the cycle, in µs; the tracing overhead is
// the median over the traced requests of how much longer each took.
func (t *tracer) summarize(m map[string]float64, quiet []float64) {
	children := make([]int64, len(t.spans)+1) // span id → time covered by its children
	for _, sp := range t.spans {
		children[sp.Parent] += sp.End - sp.Start
	}
	total := map[string][]float64{}
	self := map[string][]float64{}
	var unattributed, overhead []float64
	for _, sp := range t.spans {
		d := float64(sp.End - sp.Start)
		own := d - float64(children[sp.ID])
		total[sp.Name] = append(total[sp.Name], d/1e3)
		self[sp.Name] = append(self[sp.Name], own/1e3)
		if sp.Name == rootSpan && d > 0 {
			unattributed = append(unattributed, own/d)
			overhead = append(overhead, d/1e3/quiet[(sp.Trace-1)%len(quiet)]-1)
		}
	}
	m["wire.query_codec_us"] = median(total["wire.query_codec"])
	m["wire.result_codec_us"] = median(total["wire.result_codec"])
	m["sql.parse_us"] = median(total["sql.parse"])
	m["sql.plan_us"] = median(self["sql.plan"])
	m["sql.run_us"] = median(total["sql.run"])
	m["sql.fetch_us"] = median(self["sql.run"])
	m["am.search_us"] = median(total["am.search"])
	m["ivfflat.scan_us"] = median(total["ivfflat.scan"])
	m["minheap.push_us"] = median(total["minheap.push"])
	m["bench.unattributed_share"] = median(unattributed)
	m["bench.trace_overhead_share"] = median(overhead)
}
