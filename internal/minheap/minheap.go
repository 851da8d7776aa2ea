// Package minheap implements the top-k selection machinery whose cost the
// paper isolates as RC#6 (heap of size n instead of size k) and part of
// RC#3 (a lock-guarded shared heap versus per-thread local heaps).
//
// Three strategies are provided:
//
//   - TopK: a bounded max-heap of size k; pushing is O(log k) and only
//     happens when a candidate beats the current k-th best. This is the
//     Faiss strategy.
//   - Collector: accumulate all n candidates, heapify, then pop k.
//     This is the PASE strategy the paper measures in Table V.
//   - SharedTopK: a TopK behind a mutex, the PASE intra-query parallel
//     strategy in Fig 18; Faiss instead merges thread-local TopKs.
package minheap

import "sort"

// Item is a candidate search result: an opaque 64-bit identifier and its
// distance to the query (smaller is better).
type Item struct {
	ID   int64
	Dist float32
}

// Less is the deterministic total order on items: ascending distance,
// equal distances broken by ascending ID. TopK keeps the k smallest
// items under this order, so for a given multiset of (ID, Dist) pairs
// the retained set does not depend on arrival order — which is what
// keeps scatter-gathered shard results stable across runs.
func Less(a, b Item) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// TopK keeps the k smallest items seen so far (under Less) using a
// bounded binary max-heap: the root is the current worst of the best k,
// so a new candidate is accepted only if it beats the root.
type TopK struct {
	k     int
	items []Item // max-heap under Less once len == k
}

// NewTopK returns a collector for the k best items. k must be ≥ 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("minheap: k must be >= 1")
	}
	return &TopK{k: k, items: make([]Item, 0, k)}
}

// K returns the configured capacity.
func (h *TopK) K() int { return h.k }

// Push offers a candidate. It returns true if the candidate was kept.
func (h *TopK) Push(id int64, dist float32) bool {
	it := Item{ID: id, Dist: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !Less(it, h.items[0]) {
		return false
	}
	h.items[0] = it
	h.siftDown(0)
	return true
}

func (h *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *TopK) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && Less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && Less(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// Results returns the collected items sorted by ascending distance.
// The heap is consumed conceptually but remains usable (results are
// copied out).
func (h *TopK) Results() []Item {
	out := make([]Item, len(h.items))
	copy(out, h.items)
	sortItems(out)
	return out
}

// Merge folds every item of other into h. It is the reduction step of the
// Faiss local-heap parallel strategy.
func (h *TopK) Merge(other *TopK) {
	for _, it := range other.items {
		h.Push(it.ID, it.Dist)
	}
}

// Reset empties the heap for reuse without reallocating.
func (h *TopK) Reset() { h.items = h.items[:0] }

// Collector implements the PASE top-k strategy (RC#6): every candidate is
// appended to a slice of size n, which is then heapified as a *min*-heap
// and popped k times. Compared to TopK this costs O(n) memory and
// O(n + k·log n) pops instead of O(k) memory and mostly-rejected pushes.
type Collector struct {
	items []Item
}

// NewCollector returns an empty collector; sizeHint preallocates.
func NewCollector(sizeHint int) *Collector {
	return &Collector{items: make([]Item, 0, sizeHint)}
}

// Push appends a candidate unconditionally (that is the point: PASE pays
// for every candidate regardless of whether it can make the top k).
func (c *Collector) Push(id int64, dist float32) {
	c.items = append(c.items, Item{ID: id, Dist: dist})
}

// Append bulk-adds already-materialized candidates in order — exactly
// len(items) Push calls, at memmove speed. The batched replay path uses
// it to reproduce a solo push sequence without per-item call overhead.
func (c *Collector) Append(items []Item) {
	c.items = append(c.items, items...)
}

// PopK heapifies all collected items and pops the k smallest, mirroring
// PASE's n-sized heap. The collector is drained.
func (c *Collector) PopK(k int) []Item {
	n := len(c.items)
	// Build a min-heap over all n items (Floyd heapify, O(n)).
	for i := n/2 - 1; i >= 0; i-- {
		c.minSiftDown(i, n)
	}
	if k > n {
		k = n
	}
	out := make([]Item, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, c.items[0])
		n--
		c.items[0] = c.items[n]
		c.minSiftDown(0, n)
	}
	c.items = c.items[:0]
	return out
}

func (c *Collector) minSiftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.items[l].Dist < c.items[smallest].Dist {
			smallest = l
		}
		if r < n && c.items[r].Dist < c.items[smallest].Dist {
			smallest = r
		}
		if smallest == i {
			return
		}
		c.items[i], c.items[smallest] = c.items[smallest], c.items[i]
		i = smallest
	}
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return Less(items[i], items[j]) })
}

// MergeK merges candidate lists (e.g. per-shard top-k results) into the
// k globally best items via a size-k bounded heap. Because TopK retains
// the k smallest items under the (Dist, ID) total order, the returned
// slice is deterministic for a given multiset of items regardless of
// list order or arrival order — equal-distance ties at the k boundary
// always resolve the same way. Callers merging across shards encode
// (shard, position) into ID to realize a (distance, shard, tid)
// tie-break.
func MergeK(k int, lists ...[]Item) []Item {
	h := NewTopK(k)
	for _, list := range lists {
		for _, it := range list {
			h.Push(it.ID, it.Dist)
		}
	}
	return h.Results()
}
