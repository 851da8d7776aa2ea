// Package hnswalk is the HNSW algorithm, once, for both engines: the
// greedy descent through the upper levels, the beam search of one level,
// the diversification heuristic that picks a vertex's neighbours, and
// the insert that wires a vertex in, whose calls are the build phases of
// the paper's Table III (GreedyUpdate, SearchNbToAdd, ShrinkNbList,
// AddLink) as internal/bench's frame table reads them from CPU samples.
//
// The specialized engine (internal/faiss/hnsw) and the generalized one
// (internal/pase/hnsw) differ only in where the graph lives, and that is
// the whole of what a Graph hides: flat arrays and an epoch-stamped
// visited table on one side; buffer-pool pages, PASE's hash visited set
// (HVTGet), tombstones and a predicate on the other. So the gap between
// the engines is a statement about storage (RC#2, RC#4), never about two
// copies of the algorithm drifting apart.
//
// The seam is crossed once per expanded vertex, not once per neighbour:
// Expand scores a whole adjacency list, so each engine's per-neighbour
// loop stays concrete code.
package hnswalk

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Scored is a vertex and its distance to the current query point.
type Scored[V any] struct {
	V    V
	Dist float32
}

// Graph is where an HNSW graph lives. V names a vertex: a row index in
// flat arrays, or the page locations of a PASE vertex. Level 0 lists
// hold 2·BNN neighbours, upper levels BNN.
type Graph[V any] interface {
	// Dist scores q against v's vector.
	Dist(q []float32, v V) (float32, error)
	// Begin starts a beam's visited set, holding only ep.
	Begin(ep V)
	// Expand appends v's neighbours at level to dst, scored against q.
	// With visit set it skips the neighbours this beam has visited and
	// marks the rest visited.
	Expand(q []float32, v V, level int, visit bool, dst []Scored[V]) ([]Scored[V], error)
	// Admit reports whether v may enter a beam's results; the beam
	// routes through v either way.
	Admit(v V) (bool, error)
	// Key orders equal distances in a beam's results; it is unique per
	// vertex.
	Key(v V) int64
	// Occluded reports whether some vertex of kept lies closer to c.V
	// than c.Dist: the diversification heuristic's test.
	Occluded(c Scored[V], kept []Scored[V]) (bool, error)
	// Vector returns v's vector, valid until the next Vector call.
	Vector(v V) ([]float32, error)
	// AddLink writes nb into a free slot of v's list at level. full
	// reports a list without one, which is left as it was.
	AddLink(v, nb V, level int) (full bool, err error)
	// Rewrite replaces v's list at level with list.
	Rewrite(v V, level int, list []Scored[V]) error
}

// Walker runs the algorithm over a Graph, keeping its queues and
// buffers between calls so a walk allocates nothing once they have
// grown. A Walker serves one walk at a time. BNN and EFB (the paper's
// bnn and efb) are read only by Link and Relink.
type Walker[V any] struct {
	BNN, EFB int

	cands candQueue[V]
	res   topK[V]
	// out holds search's results; nbs is Expand's buffer in search and
	// greedy, and shrink's candidates; kept is selectNeighbors'; overflow
	// is Link's.
	out, nbs, kept, overflow []Scored[V]
}

// Capacity is the list length at level: 2·BNN at level 0, BNN above.
func (w *Walker[V]) Capacity(level int) int {
	if level == 0 {
		return 2 * w.BNN
	}
	return w.BNN
}

// Level draws a new vertex's top level from HNSW's exponential
// distribution, floor(−ln(r)/ln(BNN)).
func (w *Walker[V]) Level(rng *rand.Rand) int {
	r := rng.Float64()
	for r <= 0 {
		r = rng.Float64()
	}
	return int(math.Floor(-math.Log(r) * (1 / math.Log(float64(w.BNN)))))
}

// greedy walks level from ep, moving to strictly closer neighbours until
// none is closer.
func (w *Walker[V]) greedy(g Graph[V], q []float32, ep V, epDist float32, level int) (V, float32, error) {
	for {
		nbs, err := g.Expand(q, ep, level, false, w.nbs[:0])
		w.nbs = nbs
		if err != nil {
			return ep, epDist, err
		}
		improved := false
		for _, nb := range nbs {
			if nb.Dist < epDist {
				ep, epDist = nb.V, nb.Dist
				improved = true
			}
		}
		if !improved {
			return ep, epDist, nil
		}
	}
}

// search is the beam search at one level: it expands the closest
// unexpanded candidate until none can improve the ef best admitted
// vertices, which it returns by ascending (distance, key). The result is
// valid until the next search.
func (w *Walker[V]) search(g Graph[V], q []float32, ep V, epDist float32, ef, level int) ([]Scored[V], error) {
	g.Begin(ep)
	w.res.reset(ef)
	w.cands.reset()
	if err := w.admit(g, ep, epDist); err != nil {
		return nil, err
	}
	w.cands.push(ep, epDist)
	for w.cands.len() > 0 {
		cur, curDist := w.cands.pop()
		if worst, full := w.res.worst(); full && curDist > worst {
			break
		}
		nbs, err := g.Expand(q, cur, level, true, w.nbs[:0])
		w.nbs = nbs
		if err != nil {
			return nil, err
		}
		for _, nb := range nbs {
			if worst, full := w.res.worst(); !full || nb.Dist < worst {
				if err := w.admit(g, nb.V, nb.Dist); err != nil {
					return nil, err
				}
				w.cands.push(nb.V, nb.Dist)
			}
		}
	}
	w.out = w.res.sorted(w.out[:0])
	return w.out, nil
}

func (w *Walker[V]) admit(g Graph[V], v V, d float32) error {
	ok, err := g.Admit(v)
	if ok {
		w.res.push(v, g.Key(v), d)
	}
	return err
}

// Knn answers a query: the greedy descent from entry through the levels
// above 0, then the beam of length ef at level 0.
func (w *Walker[V]) Knn(g Graph[V], q []float32, entry V, maxLevel, ef int) ([]Scored[V], error) {
	ep := entry
	epDist, err := g.Dist(q, ep)
	if err != nil {
		return nil, err
	}
	for lev := maxLevel; lev > 0; lev-- {
		if ep, epDist, err = w.greedy(g, q, ep, epDist, lev); err != nil {
			return nil, err
		}
	}
	return w.search(g, q, ep, epDist, ef, 0)
}

// selectNeighbors applies the diversification heuristic to cands, sorted by
// ascending distance: a candidate is kept only if no kept vertex is
// closer to it than the point they are scored against, up to capacity.
// Pruned candidates are dropped, so a list may end below capacity and
// take later reverse links without a rebuild. The result is valid until
// the next selectNeighbors.
func (w *Walker[V]) selectNeighbors(g Graph[V], cands []Scored[V], capacity int) ([]Scored[V], error) {
	if len(cands) <= capacity {
		return cands, nil
	}
	kept := w.kept[:0]
	for _, c := range cands {
		if len(kept) >= capacity {
			break
		}
		occluded, err := g.Occluded(c, kept)
		if err != nil {
			return nil, err
		}
		if !occluded {
			kept = append(kept, c)
		}
	}
	w.kept = kept
	return kept, nil
}

// Link wires self, whose vector is q and whose top level is level, into
// a graph whose entry point is entry at maxLevel. The caller stores the
// vertex first and moves the entry point afterwards. Each Table III phase
// is a call made directly from here (internal/bench reads them by name):
// greedy is GreedyUpdate, search SearchNbToAdd, selectNeighbors and
// shrink ShrinkNbList, and the Graph's AddLink AddLink.
func (w *Walker[V]) Link(g Graph[V], q []float32, self V, level int, entry V, maxLevel int) error {
	ep := entry
	epDist, err := g.Dist(q, ep)
	if err != nil {
		return err
	}

	// GreedyUpdate: descend through the levels above the new vertex's.
	for lev := maxLevel; lev > level; lev-- {
		if ep, epDist, err = w.greedy(g, q, ep, epDist, lev); err != nil {
			return err
		}
	}

	for lev := min(level, maxLevel); lev >= 0; lev-- {
		// SearchNbToAdd: the beam of length efb collects candidates.
		cands, err := w.search(g, q, ep, epDist, w.EFB, lev)
		if err != nil {
			return err
		}
		// The next level's beam starts from this one's closest result
		// (shrink below reuses the buffers, so take it now). A beam that
		// admitted nothing, around tombstones, leaves the entry point.
		if len(cands) > 0 {
			ep, epDist = cands[0].V, cands[0].Dist
		}

		// ShrinkNbList: prune the candidates to the level's capacity.
		selected, err := w.selectNeighbors(g, cands, w.Capacity(lev))
		if err != nil {
			return err
		}

		// AddLink: forward and reverse edges. The new vertex's lists are
		// empty, so forward links always fit; full reverse lists are
		// rebuilt afterwards, under ShrinkNbList as Table III charges it.
		overflow := w.overflow[:0]
		for _, s := range selected {
			if _, err := g.AddLink(self, s.V, lev); err != nil {
				return err
			}
			full, err := g.AddLink(s.V, self, lev)
			if err != nil {
				return err
			}
			if full {
				overflow = append(overflow, s)
			}
		}
		w.overflow = overflow

		for _, s := range overflow {
			if err := w.shrink(g, s.V, self, lev); err != nil {
				return err
			}
		}
	}
	return nil
}

// shrink rebuilds v's full list at level from its neighbours plus extra.
func (w *Walker[V]) shrink(g Graph[V], v, extra V, level int) error {
	q, err := g.Vector(v)
	if err != nil {
		return err
	}
	d, err := g.Dist(q, extra)
	if err != nil {
		return err
	}
	cands, err := g.Expand(q, v, level, false, append(w.nbs[:0], Scored[V]{V: extra, Dist: d}))
	w.nbs = cands
	if err != nil {
		return err
	}
	return w.Relink(g, v, level, cands)
}

// Relink sorts cands by distance to v (stably), selects at most the
// level's capacity of them, and makes them v's list at level.
func (w *Walker[V]) Relink(g Graph[V], v V, level int, cands []Scored[V]) error {
	slices.SortStableFunc(cands, func(a, b Scored[V]) int { return cmp.Compare(a.Dist, b.Dist) })
	selected, err := w.selectNeighbors(g, cands, w.Capacity(level))
	if err != nil {
		return err
	}
	return g.Rewrite(v, level, selected)
}

// candQueue is a binary min-heap of vertices by distance: the beam's
// frontier. It is separate from topK (a bounded max-heap of results)
// because the two have opposite orders.
type candQueue[V any] struct {
	vs    []V
	dists []float32
}

func (q *candQueue[V]) reset()   { q.vs, q.dists = q.vs[:0], q.dists[:0] }
func (q *candQueue[V]) len() int { return len(q.vs) }

func (q *candQueue[V]) push(v V, dist float32) {
	q.vs = append(q.vs, v)
	q.dists = append(q.dists, dist)
	for i := len(q.vs) - 1; i > 0; {
		parent := (i - 1) / 2
		if q.dists[parent] <= q.dists[i] {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *candQueue[V]) pop() (V, float32) {
	v, dist := q.vs[0], q.dists[0]
	last := len(q.vs) - 1
	q.vs[0], q.dists[0] = q.vs[last], q.dists[last]
	q.vs, q.dists = q.vs[:last], q.dists[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && q.dists[l] < q.dists[smallest] {
			smallest = l
		}
		if r < last && q.dists[r] < q.dists[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.swap(i, smallest)
		i = smallest
	}
	return v, dist
}

func (q *candQueue[V]) swap(i, j int) {
	q.vs[i], q.vs[j] = q.vs[j], q.vs[i]
	q.dists[i], q.dists[j] = q.dists[j], q.dists[i]
}

// topK keeps the k smallest results under (distance, key) — the order
// of minheap.TopK — in a bounded max-heap whose root is the worst kept.
type topK[V any] struct {
	k     int
	items []keyed[V]
}

type keyed[V any] struct {
	Scored[V]
	key int64
}

func (a keyed[V]) less(b keyed[V]) bool {
	return a.Dist < b.Dist || a.Dist == b.Dist && a.key < b.key
}

func (h *topK[V]) reset(k int) { h.k, h.items = k, h.items[:0] }

// worst returns the root's distance once the heap holds k results.
func (h *topK[V]) worst() (float32, bool) {
	if len(h.items) < h.k {
		return 0, false
	}
	return h.items[0].Dist, true
}

func (h *topK[V]) push(v V, key int64, dist float32) {
	it := keyed[V]{Scored[V]{v, dist}, key}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		for i := len(h.items) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.items[parent].less(h.items[i]) {
				break
			}
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			i = parent
		}
		return
	}
	h.items[0] = it // callers push only what beats the root
	for i, n := 0, len(h.items); ; {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[largest].less(h.items[l]) {
			largest = l
		}
		if r < n && h.items[largest].less(h.items[r]) {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// sorted appends the results to dst by ascending (distance, key),
// consuming the heap.
func (h *topK[V]) sorted(dst []Scored[V]) []Scored[V] {
	slices.SortFunc(h.items, func(a, b keyed[V]) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.key, b.key))
	})
	for _, it := range h.items {
		dst = append(dst, it.Scored)
	}
	h.items = h.items[:0]
	return dst
}
