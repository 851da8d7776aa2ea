// Package hnsw implements the specialized (Faiss-style) HNSW graph index:
// a hierarchy of proximity graphs where every vertex is a stored vector,
// neighbor lists are flat 4-byte vertex-ID arrays, and all traversal is
// direct memory access.
//
// The algorithm itself — insert, greedy descent, beam search, neighbour
// selection, and Table III's build phases SearchNbToAdd, AddLink,
// GreedyUpdate and ShrinkNbList — is internal/hnswalk, which the PASE
// implementation (internal/pase/hnsw) runs too. This package is only the
// graph store, so the breakdown experiments compare like with like: the
// PASE store pays buffer-manager and tuple-access costs (RC#2) and a
// page-per-adjacency-list layout (RC#4) for the same walk.
package hnsw

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vecstudy/internal/hnswalk"
	"vecstudy/internal/minheap"
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
	rng        *rand.Rand
	stats      Stats

	// visited is a Faiss-style epoch-stamped visited table: O(1) checks
	// with no hashing and no clearing between queries.
	visited      []uint32
	visitedEpoch uint32

	// walk keeps the search queues and buffers, so a search allocates
	// only the rows it returns; like visited, it serves one call at a
	// time.
	walk hnswalk.Walker[int32]
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
		rng:        rand.New(rand.NewSource(opts.Seed)),
		walk:       hnswalk.Walker[int32]{BNN: opts.BNN, EFB: opts.EFB},
	}, nil
}

// Opts returns the construction options.
func (ix *Index) Opts() Options { return ix.opts }

// Stats returns accumulated build statistics.
func (ix *Index) Stats() Stats { return ix.stats }

// N returns the number of stored vectors.
func (ix *Index) N() int { return ix.vecs.N() }

// Add inserts the n×Dim row-major matrix data; vertex IDs are assigned
// sequentially (vertex ID == row index across all Add calls).
func (ix *Index) Add(data []float32, n int) error {
	if len(data) != n*ix.opts.Dim {
		return fmt.Errorf("hnsw: data length %d != n*Dim", len(data))
	}
	start := time.Now()
	d := ix.opts.Dim
	for i := 0; i < n; i++ {
		if err := ix.insert(data[i*d : (i+1)*d]); err != nil {
			return err
		}
	}
	ix.stats.NAdded += n
	ix.stats.Total += time.Since(start)
	return nil
}

func (ix *Index) insert(x []float32) error {
	id := int32(ix.vecs.N())
	ix.vecs.Append(x)
	ix.visited = append(ix.visited, 0)
	level := int32(ix.walk.Level(ix.rng))
	ix.levels = append(ix.levels, level)
	nodeLinks := make([][]int32, level+1)
	for l := int32(0); l <= level; l++ {
		nodeLinks[l] = make([]int32, 0, ix.walk.Capacity(int(l)))
	}
	ix.links = append(ix.links, nodeLinks)

	if ix.entryPoint < 0 {
		ix.entryPoint = id
		ix.maxLevel = level
		return nil
	}
	if err := ix.walk.Link((*graph)(ix), x, id, int(level), ix.entryPoint, int(ix.maxLevel)); err != nil {
		return err
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entryPoint = id
	}
	return nil
}

func (ix *Index) dist(x []float32, id int32) float32 {
	return ix.opts.Kernel.L2Sqr(x, ix.vecs.Row(int(id)))
}

// graph is the Index as the walk sees it: vectors and neighbour lists
// read straight from memory, the epoch-stamped visited table, every
// vertex admitted. The visited check is inline in Expand, so Fig 8 reads
// it as Expand's own samples (visited-check).
type graph Index

var _ hnswalk.Graph[int32] = (*graph)(nil)

func (g *graph) Dist(q []float32, v int32) (float32, error) { return (*Index)(g).dist(q, v), nil }

func (g *graph) Begin(ep int32) {
	g.visitedEpoch++
	g.visited[ep] = g.visitedEpoch
}

func (g *graph) Expand(q []float32, v int32, level int, visit bool, dst []hnswalk.Scored[int32]) ([]hnswalk.Scored[int32], error) {
	ix := (*Index)(g)
	for _, nb := range g.links[v][level] {
		if visit {
			seen := g.visited[nb] == g.visitedEpoch
			g.visited[nb] = g.visitedEpoch
			if seen {
				continue
			}
		}
		dst = append(dst, hnswalk.Scored[int32]{V: nb, Dist: ix.dist(q, nb)})
	}
	return dst, nil
}

func (g *graph) Admit(int32) (bool, error) { return true, nil }

func (g *graph) Key(v int32) int64 { return int64(v) }

func (g *graph) Occluded(c hnswalk.Scored[int32], kept []hnswalk.Scored[int32]) (bool, error) {
	cv := g.vecs.Row(int(c.V))
	for _, s := range kept {
		if g.opts.Kernel.L2Sqr(cv, g.vecs.Row(int(s.V))) < c.Dist {
			return true, nil
		}
	}
	return false, nil
}

func (g *graph) Vector(v int32) ([]float32, error) { return g.vecs.Row(int(v)), nil }

func (g *graph) AddLink(v, nb int32, level int) (bool, error) {
	list := g.links[v][level]
	if len(list) >= g.walk.Capacity(level) {
		return true, nil
	}
	g.links[v][level] = append(list, nb)
	return false, nil
}

func (g *graph) Rewrite(v int32, level int, list []hnswalk.Scored[int32]) error {
	ids := g.links[v][level][:0]
	for _, s := range list {
		ids = append(ids, s.V)
	}
	g.links[v][level] = ids
	return nil
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
	if k <= 0 {
		return nil, errors.New("hnsw: k must be positive")
	}
	found, err := ix.walk.Knn((*graph)(ix), query, ix.entryPoint, int(ix.maxLevel), max(efs, k))
	if err != nil {
		return nil, err
	}
	items := make([]minheap.Item, min(k, len(found)))
	for i := range items {
		items[i] = minheap.Item{ID: int64(found[i].V), Dist: found[i].Dist}
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
