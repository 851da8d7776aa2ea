package hnsw

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/hnswalk"
	"vecstudy/internal/pase"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("hnsw", Build)
}

// BuildStats reports construction timing (Fig 7).
type BuildStats struct {
	Total  time.Duration
	NAdded int
}

// Index is a built PASE HNSW index.
type Index struct {
	ctx  *am.BuildContext
	meta meta

	mu    sync.Mutex // serializes inserts, deletes, Maintain, and meta updates
	rng   *rand.Rand
	stats BuildStats

	// tids maps each live vertex's heap TID to its graph location —
	// HNSW has no deterministic vector→vertex mapping (unlike IVF's
	// coarse assignment), so Delete needs the reverse map. tombs holds
	// tombstoned vertices (by VID key) until Maintain unlinks them.
	// Both are guarded by mu; search paths never read them — the
	// on-page tombstone byte is the single source of truth there.
	tids  map[heap.TID]VID
	tombs map[uint64]VID
	dead  atomic.Int64 // tombstoned vertices awaiting Maintain

	// walk and build serve inserts and Maintain, which mu serializes;
	// every scan runs a walk of its own.
	walk  hnswalk.Walker[VID]
	build *graph
}

var _ am.Index = (*Index)(nil)

// AM implements am.Index.
func (ix *Index) AM() string { return "hnsw" }

// Stats returns build statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Build constructs the graph by inserting every table row in TID order.
// Options: bnn (base neighbor count, default 16), efb (construction
// queue length, default 40), seed, packed (default true: one adjacency
// blob per vertex on shared pages, the paper's Sec IX-C fix; packed =
// false is the paper's page-per-adjacency-list layout, RC#4).
func Build(ctx *am.BuildContext) (am.Index, error) {
	bnn, err := pase.OptInt(ctx.Opts, "bnn", 16)
	if err != nil {
		return nil, err
	}
	efb, err := pase.OptInt(ctx.Opts, "efb", 40)
	if err != nil {
		return nil, err
	}
	seed, err := pase.OptInt(ctx.Opts, "seed", 0)
	if err != nil {
		return nil, err
	}
	if bnn < 2 {
		return nil, errors.New("pase/hnsw: bnn must be >= 2")
	}
	if efb < 1 {
		return nil, errors.New("pase/hnsw: efb must be >= 1")
	}
	packed, err := pase.OptBool(ctx.Opts, "packed", true)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		ctx:   ctx,
		rng:   rand.New(rand.NewSource(int64(seed))),
		tids:  make(map[heap.TID]VID),
		tombs: make(map[uint64]VID),
		walk:  hnswalk.Walker[VID]{BNN: bnn, EFB: efb},
	}
	ix.build = &graph{ix: ix, kern: refKern, ef: efb}
	ix.meta = meta{
		Dim: uint32(ctx.Dim), BNN: uint32(bnn), EFB: uint32(efb),
		MaxLevel: -1, Entry: InvalidVID, LastDataBlk: pase.InvalidBlk,
		Packed: packed, LastNbBlk: pase.InvalidBlk,
	}

	metaBuf, metaBlk, err := ctx.Pool.NewPage(ctx.Rel)
	if err != nil {
		return nil, err
	}
	if metaBlk != 0 {
		metaBuf.Release()
		return nil, fmt.Errorf("pase/hnsw: meta page allocated at block %d", metaBlk)
	}
	page.Init(metaBuf.Page(), 0)
	if _, err := metaBuf.Page().AddItem(encodeMeta(ix.meta)); err != nil {
		metaBuf.Release()
		return nil, err
	}
	metaBuf.MarkDirty()
	metaBuf.Release()

	start := time.Now()
	err = ctx.Table.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		v, err := ctx.Table.Schema().VectorAt(tup, ctx.VecCol)
		if err != nil {
			return false, err
		}
		if len(v) != ctx.Dim {
			return false, fmt.Errorf("pase/hnsw: row %v has dimension %d, index expects %d", tid, len(v), ctx.Dim)
		}
		return true, ix.insertLocked(v, tid)
	})
	if err != nil {
		return nil, err
	}
	ix.stats.Total = time.Since(start)
	return ix, ix.saveMeta()
}

// Insert implements am.Index.
func (ix *Index) Insert(v []float32, tid heap.TID) error {
	if len(v) != int(ix.meta.Dim) {
		return fmt.Errorf("pase/hnsw: inserting %d-dim vector into %d-dim index", len(v), ix.meta.Dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.insertLocked(v, tid); err != nil {
		return err
	}
	return ix.saveMeta()
}

// SizeBytes reports the index relation footprint (Fig 13 / Table IV).
func (ix *Index) SizeBytes() (int64, error) {
	nblocks, err := ix.ctx.Pool.NumBlocks(ix.ctx.Rel)
	if err != nil {
		return 0, err
	}
	return int64(nblocks) * int64(ix.ctx.Pool.PageSize()), nil
}

// NVertices returns the number of inserted vertices.
func (ix *Index) NVertices() int { return int(ix.meta.NVertices) }

// insertLocked adds one vertex. Callers hold ix.mu (Build runs without
// contention).
func (ix *Index) insertLocked(v []float32, tid heap.TID) error {
	level := uint16(min(ix.walk.Level(ix.rng), 30))

	var nbBlk uint32
	var nbOff uint16
	var err error
	if ix.meta.Packed {
		nbBlk, nbOff, err = ix.allocPackedBlob(level)
	} else {
		nbBlk, err = ix.allocNeighborPages(level)
	}
	if err != nil {
		return err
	}
	dataBlk, dataOff, err := ix.appendData(tid, nbBlk, nbOff, level, v)
	if err != nil {
		return err
	}
	self := VID{NbBlk: nbBlk, DataBlk: dataBlk, DataOff: dataOff, NbOff: nbOff}
	ix.tids[tid] = self
	ix.meta.NVertices++

	if !ix.meta.Entry.Valid() {
		ix.meta.Entry = self
		ix.meta.MaxLevel = int32(level)
		ix.stats.NAdded++
		return nil
	}
	if err := ix.walk.Link(ix.build, v, self, int(level), ix.meta.Entry, int(ix.meta.MaxLevel)); err != nil {
		return err
	}
	if int32(level) > ix.meta.MaxLevel {
		ix.meta.MaxLevel = int32(level)
		ix.meta.Entry = self
	}
	ix.stats.NAdded++
	return nil
}

// allocNeighborPages allocates the vertex's adjacency pages — always
// starting from a fresh page (RC#4) — one empty 24-byte slot item for
// every slot of every level up to the vertex's level.
func (ix *Index) allocNeighborPages(level uint16) (uint32, error) {
	ctx := ix.ctx
	firstBlk := pase.InvalidBlk
	var cur *buffer.Buf
	newPage := func() error {
		buf, blk, err := ctx.Pool.NewPage(ctx.Rel)
		if err != nil {
			// Drop the pin on the previous chain page before bailing out;
			// failing mid-chain (pool exhausted) used to leave it pinned
			// forever, making its frame unevictable.
			if cur != nil {
				cur.MarkDirty()
				cur.Release()
				cur = nil
			}
			return err
		}
		page.Init(buf.Page(), pase.ChainSpecialSize)
		pase.SetNextBlk(buf.Page(), pase.InvalidBlk)
		if cur != nil {
			pase.SetNextBlk(cur.Page(), blk)
			cur.MarkDirty()
			cur.Release()
		} else {
			firstBlk = blk
		}
		cur = buf
		return nil
	}
	if err := newPage(); err != nil {
		return 0, err
	}
	slots := ix.emptySlots(level)
	for off := 0; off < len(slots); {
		if _, err := cur.Page().AddItem(slots[off : off+neighborTupleSize]); err != nil {
			if !errors.Is(err, page.ErrPageFull) {
				cur.Release()
				return 0, err
			}
			if err := newPage(); err != nil {
				return 0, err
			}
			continue
		}
		off += neighborTupleSize
	}
	cur.MarkDirty()
	cur.Release()
	return firstBlk, nil
}

// allocPackedBlob implements the *packed* adjacency layout — the paper's
// "memory-optimized table design" future direction (Sec IX-C Step#1,
// bridging RC#4). Instead of a fresh page per vertex holding one 24-byte
// item per neighbor slot, each vertex's entire adjacency state is a
// single blob item (totalSlots × 24 bytes) appended to a shared page.
// Multiple vertices share pages, so the space overhead drops from ~1 page
// per vertex to the blob payload itself, and a vertex's whole
// neighborhood is read with one pin + one line-pointer lookup (eachSlot
// walks both layouts). It appends an all-empty adjacency blob for a new
// vertex, sharing pages with earlier vertices, and returns its location.
func (ix *Index) allocPackedBlob(level uint16) (uint32, uint16, error) {
	blob := ix.emptySlots(level)
	blk, off, err := ix.appendItem(&ix.meta.LastNbBlk, blob)
	if errors.Is(err, page.ErrPageFull) {
		err = fmt.Errorf("pase/hnsw: adjacency blob of %d bytes does not fit a %d-byte page; use the chained layout for this bnn", len(blob), ix.ctx.Pool.PageSize())
	}
	return blk, off, err
}

// appendData stores the vector entry in the shared data pages, returning
// its location.
func (ix *Index) appendData(tid heap.TID, nbBlk uint32, nbOff, level uint16, v []float32) (uint32, uint16, error) {
	entry := make([]byte, dataEntryHeaderSize+len(v)*4)
	encodeDataEntry(entry, tid, nbBlk, nbOff, level, v)
	blk, off, err := ix.appendItem(&ix.meta.LastDataBlk, entry)
	if errors.Is(err, page.ErrPageFull) {
		err = fmt.Errorf("pase/hnsw: data entry does not fit an empty page: %w", err)
	}
	return blk, off, err
}

// appendItem adds item to the page *hint names or, when that is full, to
// a fresh page it then names: the append path of the pages vertices
// share, data entries and packed adjacency blobs. page.ErrPageFull means
// item does not fit even an empty page.
func (ix *Index) appendItem(hint *uint32, item []byte) (uint32, uint16, error) {
	ctx := ix.ctx
	if *hint != pase.InvalidBlk {
		buf, err := ctx.Pool.Pin(ctx.Rel, *hint)
		if err != nil {
			return 0, 0, err
		}
		off, err := buf.Page().AddItem(item)
		if err == nil {
			buf.MarkDirty()
		}
		buf.Release()
		if err == nil {
			return *hint, off, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			return 0, 0, err
		}
	}
	buf, blk, err := ctx.Pool.NewPage(ctx.Rel)
	if err != nil {
		return 0, 0, err
	}
	page.Init(buf.Page(), 0)
	off, err := buf.Page().AddItem(item)
	if err != nil {
		buf.Release()
		return 0, 0, err
	}
	buf.MarkDirty()
	buf.Release()
	*hint = blk
	return blk, off, nil
}

// saveMeta rewrites the meta page item.
func (ix *Index) saveMeta() error {
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, 0)
	if err != nil {
		return err
	}
	err = buf.Page().OverwriteItem(1, encodeMeta(ix.meta))
	if err == nil {
		buf.MarkDirty()
	}
	buf.Release()
	return err
}

// vectorCopy reads a vertex's vector out of its data page into dst.
func (ix *Index) vectorCopy(v VID, dst []float32) ([]float32, error) {
	dst = dst[:0]
	err := ix.withVector(v, func(vecView []float32) {
		dst = append(dst, vecView...)
	})
	return dst, err
}

// withVector pins the vertex's data page and exposes its vector in place
// — the PASE "tuple access" path, which Fig 8 reads by this frame.
func (ix *Index) withVector(v VID, fn func([]float32)) error {
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.DataBlk)
	if err != nil {
		return err
	}
	item, err := buf.Page().Item(v.DataOff)
	if err != nil {
		buf.Release()
		return err
	}
	_, _, _, _, vecBytes := decodeDataEntry(item)
	fn(pase.Float32View(vecBytes))
	buf.Release()
	return nil
}

// tidOf returns the heap TID stored with a vertex.
func (ix *Index) tidOf(v VID) (heap.TID, error) {
	tid, _, _, err := ix.entryState(v)
	return tid, err
}

// refKern pins graph construction and repair to the ref kernel: the
// edges a vertex gets (and the repairs Delete/Maintain perform) must not
// depend on the session's SET distance_kernel. Search paths thread the
// session kernel (am.ScanOpts.Kernel) through distTo.
var refKern = vec.Ref()

// distTo computes the distance between query and the vertex's vector,
// through the buffer pool (tuple access + fvec_L2sqr, as Fig 8 splits).
func (ix *Index) distTo(kern vec.Kernel, query []float32, v VID) (float32, error) {
	var d float32
	err := ix.withVector(v, func(view []float32) { d = kern.L2Sqr(query, view) })
	return d, err
}

// eachSlot hands fn v's 24-byte adjacency slots in order, in place: under
// each chain page's pin in the paged layout (RC#4), under the blob's one
// pin in the packed layout. fn reports whether it wrote the slot and
// whether the walk is done; the pages it wrote are marked dirty.
func (ix *Index) eachSlot(v VID, fn func(slot []byte) (wrote, done bool)) error {
	done := false
	for blk := v.NbBlk; blk != pase.InvalidBlk && !done; {
		buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, blk)
		if err != nil {
			return err
		}
		pg := buf.Page()
		// A chain page holds one slot per item; a packed vertex is the
		// one blob item at NbOff, and its page belongs to no chain.
		first, last, next := v.NbOff, v.NbOff, pase.InvalidBlk
		if !ix.meta.Packed {
			first, last, next = 1, pg.NumItems(), pase.NextBlk(pg)
		}
		dirty := false
		for i := first; i <= last && !done; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return err
			}
			for off := 0; off+neighborTupleSize <= len(item) && !done; off += neighborTupleSize {
				var wrote bool
				wrote, done = fn(item[off : off+neighborTupleSize])
				dirty = dirty || wrote
			}
		}
		if dirty {
			buf.MarkDirty()
		}
		buf.Release()
		blk = next
	}
	return nil
}

// neighborsAt appends the used slots of v's list at level to dst. The
// slot walk is the pasepfirst cost in Fig 8.
func (ix *Index) neighborsAt(v VID, level uint16, dst []VID) ([]VID, error) {
	err := ix.eachSlot(v, func(slot []byte) (bool, bool) {
		if nb, slotLevel, used := decodeSlot(slot); used && slotLevel == level {
			dst = append(dst, nb)
		}
		return false, false
	})
	return dst, err
}

// graph is the Index as the walk sees it. Every vector read is a tuple
// access through the buffer pool (RC#2), every list a slot walk over the
// vertex's pages (RC#4), and the visited set a hash over global IDs
// (PASE's HVTGet) rather than Faiss's epoch array. Tombstoned vertices,
// and on a filtered scan the rows pred rejects, are routed through but
// never admitted: connectivity must not depend on the predicate, or the
// beam strands in filtered-out regions.
type graph struct {
	ix      *Index
	kern    vec.Kernel
	pred    am.Predicate
	ef      int // sizes the visited set
	visited map[uint64]struct{}
	// nbs is neighborsAt's buffer; vbuf and cbuf hold the copies Vector
	// and Occluded read out of the data pages.
	nbs        []VID
	vbuf, cbuf []float32
}

var _ hnswalk.Graph[VID] = (*graph)(nil)

func (g *graph) Dist(q []float32, v VID) (float32, error) { return g.ix.distTo(g.kern, q, v) }

func (g *graph) Begin(ep VID) {
	if g.visited == nil {
		g.visited = make(map[uint64]struct{}, 4*g.ef)
	} else {
		clear(g.visited)
	}
	g.visited[ep.key()] = struct{}{}
}

func (g *graph) Expand(q []float32, v VID, level int, visit bool, dst []hnswalk.Scored[VID]) ([]hnswalk.Scored[VID], error) {
	ix := g.ix
	nbs, err := ix.neighborsAt(v, uint16(level), g.nbs[:0])
	g.nbs = nbs
	if err != nil {
		return dst, err
	}
	for _, nb := range nbs {
		if visit {
			// HVTGet: Fig 8 reads it as the map frames under Expand.
			if _, seen := g.visited[nb.key()]; seen {
				continue
			}
			g.visited[nb.key()] = struct{}{}
		}
		d, err := ix.distTo(g.kern, q, nb)
		if err != nil {
			return dst, err
		}
		dst = append(dst, hnswalk.Scored[VID]{V: nb, Dist: d})
	}
	return dst, nil
}

func (g *graph) Admit(v VID) (bool, error) {
	tid, _, dead, err := g.ix.entryState(v)
	if err != nil || dead {
		return false, err
	}
	if g.pred == nil {
		return true, nil
	}
	return g.pred(tid)
}

func (g *graph) Key(v VID) int64 { return int64(v.key()) }

// Occluded pays a tuple access per vector it compares, unlike Faiss's
// array reads; the arithmetic is not charged to fvec_L2sqr.
func (g *graph) Occluded(c hnswalk.Scored[VID], kept []hnswalk.Scored[VID]) (bool, error) {
	cvec, err := g.ix.vectorCopy(c.V, g.cbuf)
	g.cbuf = cvec
	if err != nil {
		return false, err
	}
	for _, s := range kept {
		var d float32
		if err := g.ix.withVector(s.V, func(view []float32) {
			d = g.kern.L2Sqr(cvec, view)
		}); err != nil {
			return false, err
		}
		if d < c.Dist {
			return true, nil
		}
	}
	return false, nil
}

func (g *graph) Vector(v VID) ([]float32, error) {
	vec, err := g.ix.vectorCopy(v, g.vbuf)
	g.vbuf = vec
	return vec, err
}

func (g *graph) AddLink(v, nb VID, level int) (bool, error) {
	lev, full := uint16(level), true
	err := g.ix.eachSlot(v, func(slot []byte) (bool, bool) {
		if _, slotLevel, used := decodeSlot(slot); slotLevel != lev || used {
			return false, false
		}
		encodeSlot(slot, nb, lev, true)
		full = false
		return true, true
	})
	return full, err
}

func (g *graph) Rewrite(v VID, level int, list []hnswalk.Scored[VID]) error {
	lev, i := uint16(level), 0
	err := g.ix.eachSlot(v, func(slot []byte) (bool, bool) {
		if _, slotLevel, _ := decodeSlot(slot); slotLevel != lev {
			return false, false
		}
		if i < len(list) {
			encodeSlot(slot, list[i].V, lev, true)
			i++
		} else {
			encodeSlot(slot, InvalidVID, lev, false)
		}
		return true, false
	})
	if err == nil && i < len(list) {
		err = fmt.Errorf("pase/hnsw: %d selected neighbors but only %d slots at level %d", len(list), i, level)
	}
	return err
}
