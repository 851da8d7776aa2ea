// Package hnsw implements the specialized (Faiss-style) HNSW graph index:
// a hierarchy of proximity graphs where every vertex is a stored vector,
// neighbor lists are flat 4-byte vertex-ID arrays, and all traversal is
// direct memory access.
//
// The build phases are named and instrumented exactly as the paper's
// Table III breaks them down — SearchNbToAdd, AddLink, GreedyUpdate,
// ShrinkNbList — so the breakdown experiments compare like with like
// against the PASE implementation (internal/pase/hnsw), whose versions of
// the same phases pay buffer-manager and tuple-access costs (RC#2) and a
// page-per-adjacency-list layout (RC#4).
package hnsw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vecstudy/internal/minheap"
	"vecstudy/internal/prof"
	"vecstudy/internal/vec"
)

// Options configures the graph.
type Options struct {
	Dim int // required
	// BNN is the base neighbor count (paper parameter bnn, a.k.a. M):
	// upper-level vertices keep BNN links, level-0 vertices keep 2·BNN.
	BNN int
	// EFB is the construction-time priority-queue length (paper efb).
	EFB  int
	Seed int64
	// Kernel scores every distance, graph construction included; nil =
	// vec.Default().
	Kernel vec.Kernel
	Prof   *prof.Profile
}

// Stats reports construction timing by phase (Table III).
type Stats struct {
	Total  time.Duration
	NAdded int
}

// Index is an in-memory HNSW graph.
type Index struct {
	opts Options
	vecs *vec.Flat
	// levels[i] is the top level of vertex i (0-based; 0 = bottom only).
	levels []int32
	// links[i][l] is the neighbor array of vertex i at level l;
	// len(links[i]) == levels[i]+1. Level 0 arrays have capacity 2·BNN,
	// upper levels BNN — matching Faiss's flat int32 storage.
	links      [][][]int32
	entryPoint int32
	maxLevel   int32
	levelMult  float64
	rng        *rand.Rand
	stats      Stats

	// visited is a Faiss-style epoch-stamped visited table: O(1) checks
	// with no hashing and no clearing between queries.
	visited      []uint32
	visitedEpoch uint32
}

// New creates an empty graph, validating options and applying the paper's
// defaults (bnn=16, efb=40) when fields are zero.
func New(opts Options) (*Index, error) {
	if opts.Dim <= 0 {
		return nil, errors.New("hnsw: Dim must be positive")
	}
	if opts.BNN == 0 {
		opts.BNN = 16
	}
	if opts.BNN < 2 {
		return nil, errors.New("hnsw: BNN must be >= 2")
	}
	if opts.EFB == 0 {
		opts.EFB = 40
	}
	if opts.Kernel == nil {
		opts.Kernel = vec.Default()
	}
	return &Index{
		opts:       opts,
		vecs:       vec.NewFlat(opts.Dim, 0),
		entryPoint: -1,
		maxLevel:   -1,
		levelMult:  1 / math.Log(float64(opts.BNN)),
		rng:        rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// Opts returns the construction options.
func (ix *Index) Opts() Options { return ix.opts }

// Stats returns accumulated build statistics.
func (ix *Index) Stats() Stats { return ix.stats }

// N returns the number of stored vectors.
func (ix *Index) N() int { return ix.vecs.N() }

// capAt returns the link capacity at a level.
func (ix *Index) capAt(level int32) int {
	if level == 0 {
		return 2 * ix.opts.BNN
	}
	return ix.opts.BNN
}

// randomLevel draws a vertex level from the HNSW exponential distribution.
func (ix *Index) randomLevel() int32 {
	r := ix.rng.Float64()
	for r <= 0 {
		r = ix.rng.Float64()
	}
	return int32(math.Floor(-math.Log(r) * ix.levelMult))
}

// Add inserts the n×Dim row-major matrix data; vertex IDs are assigned
// sequentially (vertex ID == row index across all Add calls).
func (ix *Index) Add(data []float32, n int) error {
	if len(data) != n*ix.opts.Dim {
		return fmt.Errorf("hnsw: data length %d != n*Dim", len(data))
	}
	start := time.Now()
	d := ix.opts.Dim
	for i := 0; i < n; i++ {
		ix.insert(data[i*d : (i+1)*d])
	}
	ix.stats.NAdded += n
	ix.stats.Total += time.Since(start)
	return nil
}

func (ix *Index) insert(x []float32) {
	pr := ix.opts.Prof
	id := int32(ix.vecs.N())
	ix.vecs.Append(x)
	ix.visited = append(ix.visited, 0)
	level := ix.randomLevel()
	ix.levels = append(ix.levels, level)
	nodeLinks := make([][]int32, level+1)
	for l := int32(0); l <= level; l++ {
		nodeLinks[l] = make([]int32, 0, ix.capAt(l))
	}
	ix.links = append(ix.links, nodeLinks)

	if ix.entryPoint < 0 {
		ix.entryPoint = id
		ix.maxLevel = level
		return
	}

	ep := ix.entryPoint
	epDist := ix.dist(x, ep)

	// GreedyUpdate: descend through levels above the new vertex's level,
	// greedily moving to the closest neighbor at each.
	ts := pr.Timer("GreedyUpdate").Start()
	for lev := ix.maxLevel; lev > level; lev-- {
		ep, epDist = ix.greedyClosest(x, ep, epDist, lev)
	}
	pr.Timer("GreedyUpdate").Stop(ts)

	topLevel := level
	if topLevel > ix.maxLevel {
		topLevel = ix.maxLevel
	}
	for lev := topLevel; lev >= 0; lev-- {
		// SearchNbToAdd: beam search with queue length efb to collect
		// neighbor candidates for the new vertex.
		ts := pr.Timer("SearchNbToAdd").Start()
		cands := ix.searchLayer(x, ep, epDist, ix.opts.EFB, lev, pr)
		pr.Timer("SearchNbToAdd").Stop(ts)

		// ShrinkNbList: prune candidates to the level's capacity with the
		// HNSW diversification heuristic.
		ts = pr.Timer("ShrinkNbList").Start()
		selected := ix.selectNeighbors(cands, ix.capAt(lev))
		pr.Timer("ShrinkNbList").Stop(ts)

		// AddLink: wire the new vertex and its reverse edges. Reverse
		// lists that overflow are collected and rebuilt afterwards so the
		// shrink cost is attributed to ShrinkNbList, as Table III does.
		ts = pr.Timer("AddLink").Start()
		ix.links[id][lev] = append(ix.links[id][lev], idsOf(selected)...)
		var overflow []minheap.Item
		for _, nb := range selected {
			list := ix.links[nb.ID][lev]
			if len(list) < ix.capAt(lev) {
				ix.links[nb.ID][lev] = append(list, id)
			} else {
				overflow = append(overflow, nb)
			}
		}
		pr.Timer("AddLink").Stop(ts)
		if len(overflow) > 0 {
			ts = pr.Timer("ShrinkNbList").Start()
			for _, nb := range overflow {
				ix.shrinkReverseList(int32(nb.ID), id, nb.Dist, lev)
			}
			pr.Timer("ShrinkNbList").Stop(ts)
		}

		if len(cands) > 0 {
			ep, epDist = int32(cands[0].ID), cands[0].Dist
		}
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entryPoint = id
	}
}

// shrinkReverseList rebuilds nb's overflowed list at lev from
// (existing ∪ newID) via the diversification heuristic.
func (ix *Index) shrinkReverseList(nb, newID int32, dist float32, lev int32) {
	list := ix.links[nb][lev]
	capacity := ix.capAt(lev)
	nbVec := ix.vecs.Row(int(nb))
	cands := make([]minheap.Item, 0, len(list)+1)
	cands = append(cands, minheap.Item{ID: int64(newID), Dist: dist})
	for _, other := range list {
		cands = append(cands, minheap.Item{ID: int64(other), Dist: ix.dist(nbVec, other)})
	}
	sortByDist(cands)
	selected := ix.selectNeighbors(cands, capacity)
	ix.links[nb][lev] = append(list[:0], idsOf(selected)...)
}

// greedyClosest walks level lev moving to strictly closer neighbors until
// a local minimum is reached.
func (ix *Index) greedyClosest(x []float32, ep int32, epDist float32, lev int32) (int32, float32) {
	for {
		improved := false
		for _, nb := range ix.links[ep][lev] {
			if d := ix.dist(x, nb); d < epDist {
				ep, epDist = nb, d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// searchLayer is the HNSW beam search at one level: it maintains a
// candidate min-queue and a bounded result set of size ef, expanding the
// closest unexplored candidate until no candidate can improve the results.
// The returned items are sorted ascending by distance.
func (ix *Index) searchLayer(x []float32, ep int32, epDist float32, ef int, lev int32, pr *prof.Profile) []minheap.Item {
	ix.visitedEpoch++
	epoch := ix.visitedEpoch
	ix.visited[ep] = epoch

	results := minheap.NewTopK(ef)
	results.Push(int64(ep), epDist)
	cands := newCandQueue()
	cands.push(ep, epDist)

	tDist := pr.Timer("fvec_L2sqr")
	tVisit := pr.Timer("visited-check")

	for cands.len() > 0 {
		cur, curDist := cands.pop()
		if worst, full := results.Worst(); full && curDist > worst {
			break
		}
		for _, nb := range ix.links[cur][lev] {
			ts := tVisit.Start()
			seen := ix.visited[nb] == epoch
			if !seen {
				ix.visited[nb] = epoch
			}
			tVisit.Stop(ts)
			if seen {
				continue
			}
			ts = tDist.Start()
			d := ix.dist(x, nb)
			tDist.Stop(ts)
			if worst, full := results.Worst(); !full || d < worst {
				results.Push(int64(nb), d)
				cands.push(nb, d)
			}
		}
	}
	return results.Results()
}

// selectNeighbors applies the HNSW diversification heuristic: scan
// candidates in ascending distance order and keep one only if it is
// closer to the query vertex than to every already-kept neighbor.
// If fewer than capacity survive, the remaining slots are filled with the
// nearest rejected candidates (keepPruned, as Faiss does).
func (ix *Index) selectNeighbors(cands []minheap.Item, capacity int) []minheap.Item {
	if len(cands) <= capacity {
		return cands
	}
	kept := make([]minheap.Item, 0, capacity)
	var rejected []minheap.Item
	for _, c := range cands {
		if len(kept) >= capacity {
			break
		}
		cv := ix.vecs.Row(int(c.ID))
		diverse := true
		for _, s := range kept {
			if ix.opts.Kernel.L2Sqr(cv, ix.vecs.Row(int(s.ID))) < c.Dist {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, c)
		} else {
			rejected = append(rejected, c)
		}
	}
	for _, r := range rejected {
		if len(kept) >= capacity {
			break
		}
		kept = append(kept, r)
	}
	return kept
}

func (ix *Index) dist(x []float32, id int32) float32 {
	return ix.opts.Kernel.L2Sqr(x, ix.vecs.Row(int(id)))
}

// Search returns the k nearest stored vectors to query. efs is the search
// queue length (paper parameter efs); it is clamped to at least k.
func (ix *Index) Search(query []float32, k, efs int) ([]minheap.Item, error) {
	if ix.entryPoint < 0 {
		return nil, errors.New("hnsw: empty index")
	}
	if len(query) != ix.opts.Dim {
		return nil, fmt.Errorf("hnsw: query dimension %d != %d", len(query), ix.opts.Dim)
	}
	if efs < k {
		efs = k
	}
	ep := ix.entryPoint
	epDist := ix.dist(query, ep)
	for lev := ix.maxLevel; lev > 0; lev-- {
		ep, epDist = ix.greedyClosest(query, ep, epDist, lev)
	}
	items := ix.searchLayer(query, ep, epDist, efs, 0, ix.opts.Prof)
	if len(items) > k {
		items = items[:k]
	}
	return items, nil
}

// SizeBytes returns the graph footprint the way Fig 13 accounts it:
// stored vectors, level array, and 4 bytes per allocated neighbor slot.
func (ix *Index) SizeBytes() int64 {
	size := ix.vecs.Bytes() + int64(len(ix.levels))*4
	for _, node := range ix.links {
		for _, l := range node {
			size += int64(cap(l)) * 4
		}
	}
	return size
}

// GraphStats summarizes the level structure for tests and reports.
type GraphStats struct {
	MaxLevel  int32
	PerLevel  []int // vertices whose top level is l
	AvgDegree float64
}

// Graph returns structural statistics.
func (ix *Index) Graph() GraphStats {
	gs := GraphStats{MaxLevel: ix.maxLevel, PerLevel: make([]int, ix.maxLevel+1)}
	var degSum, degCnt int
	for i, l := range ix.levels {
		gs.PerLevel[l]++
		degSum += len(ix.links[i][0])
		degCnt++
	}
	if degCnt > 0 {
		gs.AvgDegree = float64(degSum) / float64(degCnt)
	}
	return gs
}

func idsOf(items []minheap.Item) []int32 {
	out := make([]int32, len(items))
	for i, it := range items {
		out[i] = int32(it.ID)
	}
	return out
}

func sortByDist(items []minheap.Item) {
	// insertion sort: candidate lists are short (≤ 2·BNN+1)
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].Dist < items[j-1].Dist; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}
