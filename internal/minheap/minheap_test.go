package minheap

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// bruteTopK computes the expected result by sorting everything.
func bruteTopK(items []Item, k int) []Item {
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Dist != sorted[j].Dist {
			return sorted[i].Dist < sorted[j].Dist
		}
		return sorted[i].ID < sorted[j].ID
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func randItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: int64(i), Dist: float32(rng.Float64() * 100)}
	}
	return items
}

func sameIDs(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// compare by distance, as equal-distance orderings may differ
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func TestTopKMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 10, 100, 1000} {
		for _, k := range []int{1, 3, 10, 100} {
			items := randItems(rng, n)
			h := NewTopK(k)
			for _, it := range items {
				h.Push(it.ID, it.Dist)
			}
			got := h.Results()
			want := bruteTopK(items, k)
			if !sameIDs(got, want) {
				t.Errorf("n=%d k=%d: got %v, want %v", n, k, got, want)
			}
		}
	}
}

func TestTopKResultsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewTopK(50)
	for _, it := range randItems(rng, 500) {
		h.Push(it.ID, it.Dist)
	}
	res := h.Results()
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results not sorted at %d: %v > %v", i, res[i-1].Dist, res[i].Dist)
		}
	}
}

// worst returns the heap root — the largest kept distance, which a
// candidate must beat — and whether the heap is full.
func worst(h *TopK) (float32, bool) {
	if len(h.items) < h.k {
		return 0, false
	}
	return h.items[0].Dist, true
}

func TestTopKWorst(t *testing.T) {
	h := NewTopK(2)
	if _, full := worst(h); full {
		t.Error("empty heap reported full")
	}
	h.Push(1, 5)
	if _, full := worst(h); full {
		t.Error("partially filled heap reported full")
	}
	h.Push(2, 3)
	w, full := worst(h)
	if !full || w != 5 {
		t.Errorf("Worst = %v, %v; want 5, true", w, full)
	}
	if h.Push(3, 10) {
		t.Error("kept candidate worse than heap root")
	}
	if !h.Push(4, 1) {
		t.Error("rejected improving candidate")
	}
	w, _ = worst(h)
	if w != 3 {
		t.Errorf("Worst after eviction = %v, want 3", w)
	}
}

func TestTopKRejectsInvalidK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

func TestTopKReset(t *testing.T) {
	h := NewTopK(3)
	h.Push(1, 1)
	h.Reset()
	if len(h.items) != 0 {
		t.Errorf("Len after Reset = %d", len(h.items))
	}
	h.Push(2, 2)
	if res := h.Results(); len(res) != 1 || res[0].ID != 2 {
		t.Errorf("heap unusable after Reset: %v", res)
	}
}

func TestCollectorMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 17, 333} {
		for _, k := range []int{1, 5, 17, 500} {
			items := randItems(rng, n)
			c := NewCollector(0)
			h := NewTopK(k)
			for _, it := range items {
				c.Push(it.ID, it.Dist)
				h.Push(it.ID, it.Dist)
			}
			got := c.PopK(k)
			want := h.Results()
			if !sameIDs(got, want) {
				t.Errorf("n=%d k=%d: collector %v, topk %v", n, k, got, want)
			}
		}
	}
}

func TestCollectorDrainsAfterPopK(t *testing.T) {
	c := NewCollector(4)
	c.Push(1, 1)
	c.Push(2, 2)
	if got := c.PopK(1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("PopK = %v", got)
	}
	if len(c.items) != 0 {
		t.Errorf("collector not drained: len %d", len(c.items))
	}
	c.Push(3, 3)
	if got := c.PopK(5); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("collector unusable after drain: %v", got)
	}
}

func TestCollectorPopKEmpty(t *testing.T) {
	c := NewCollector(0)
	if got := c.PopK(10); len(got) != 0 {
		t.Errorf("PopK on empty = %v", got)
	}
}

func TestSharedTopKConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 2000)
	want := bruteTopK(items, 25)

	s := NewSharedTopK(25)
	var wg sync.WaitGroup
	for t := 0; t < 8; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < len(items); i += 8 {
				s.Push(items[i].ID, items[i].Dist)
			}
		}(t)
	}
	wg.Wait()
	if got := s.Results(); !sameIDs(got, want) {
		t.Errorf("concurrent shared heap diverged from brute force")
	}
}

func TestMergeLocalEquivalentToGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, 999)
	k := 20
	locals := make([]*TopK, 4)
	for i := range locals {
		locals[i] = NewTopK(k)
	}
	for i, it := range items {
		locals[i%4].Push(it.ID, it.Dist)
	}
	got := MergeLocal(k, locals)
	want := bruteTopK(items, k)
	if !sameIDs(got, want) {
		t.Errorf("MergeLocal %v, want %v", got, want)
	}
}

func TestMergeLocalNilEntries(t *testing.T) {
	l := NewTopK(2)
	l.Push(1, 1)
	got := MergeLocal(2, []*TopK{nil, l, nil})
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("MergeLocal with nils = %v", got)
	}
}

func TestTopKPropertyAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(300), 1+rng.Intn(40)
		items := randItems(rng, n)
		h := NewTopK(k)
		for _, it := range items {
			h.Push(it.ID, it.Dist)
		}
		return sameIDs(h.Results(), bruteTopK(items, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
