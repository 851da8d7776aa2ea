package hnsw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/minheap"
	"vecstudy/internal/pase"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
	"vecstudy/internal/prof"
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

	mu        sync.Mutex // serializes inserts, deletes, Maintain, and meta updates
	levelMult float64
	rng       *rand.Rand
	stats     BuildStats

	// tids maps each live vertex's heap TID to its graph location —
	// HNSW has no deterministic vector→vertex mapping (unlike IVF's
	// coarse assignment), so Delete needs the reverse map. tombs holds
	// tombstoned vertices (by VID key) until Maintain unlinks them.
	// Both are guarded by mu; search paths never read them — the
	// on-page tombstone byte is the single source of truth there.
	tids  map[heap.TID]VID
	tombs map[uint64]VID
	dead  atomic.Int64 // tombstoned vertices awaiting Maintain

	// The prof regions of the traversal loop, resolved once at Build
	// (ctx.Prof never changes afterwards; all nil when profiling is off):
	// a by-name lookup per distance and per adjacency read — a mutex and a
	// map when profiling is on — would charge Fig 8's breakdown for its
	// own bookkeeping.
	tDist, tNb, tVisit, tTuple *prof.Timer
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
		ctx:       ctx,
		levelMult: 1 / math.Log(float64(bnn)),
		rng:       rand.New(rand.NewSource(int64(seed))),
		tids:      make(map[heap.TID]VID),
		tombs:     make(map[uint64]VID),
		tDist:     ctx.Prof.Timer("fvec_L2sqr"),
		tNb:       ctx.Prof.Timer("pasepfirst"),
		tVisit:    ctx.Prof.Timer("HVTGet"),
		tTuple:    ctx.Prof.Timer("tuple_access"),
	}
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

func (ix *Index) randomLevel() uint16 {
	r := ix.rng.Float64()
	for r <= 0 {
		r = ix.rng.Float64()
	}
	l := int(math.Floor(-math.Log(r) * ix.levelMult))
	if l > 30 {
		l = 30
	}
	return uint16(l)
}

func (ix *Index) capAt(level uint16) int {
	if level == 0 {
		return 2 * int(ix.meta.BNN)
	}
	return int(ix.meta.BNN)
}

// insertLocked adds one vertex. Callers hold ix.mu (Build runs without
// contention).
func (ix *Index) insertLocked(v []float32, tid heap.TID) error {
	pr := ix.ctx.Prof
	level := ix.randomLevel()

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

	ep := ix.meta.Entry
	epDist, err := ix.distTo(refKern, v, ep)
	if err != nil {
		return err
	}

	// GreedyUpdate: descend levels above the new vertex's level.
	ts := pr.Timer("GreedyUpdate").Start()
	for lev := uint16(ix.meta.MaxLevel); int32(lev) > int32(level) && lev > 0; lev-- {
		ep, epDist, err = ix.greedyClosest(refKern, v, ep, epDist, lev)
		if err != nil {
			pr.Timer("GreedyUpdate").Stop(ts)
			return err
		}
	}
	pr.Timer("GreedyUpdate").Stop(ts)

	topLevel := level
	if int32(topLevel) > ix.meta.MaxLevel {
		topLevel = uint16(ix.meta.MaxLevel)
	}
	for lev := int32(topLevel); lev >= 0; lev-- {
		ts := pr.Timer("SearchNbToAdd").Start()
		cands, err := ix.searchLayer(refKern, v, ep, epDist, int(ix.meta.EFB), uint16(lev), nil)
		pr.Timer("SearchNbToAdd").Stop(ts)
		if err != nil {
			return err
		}

		ts = pr.Timer("ShrinkNbList").Start()
		selected, err := ix.selectNeighbors(cands, ix.capAt(uint16(lev)))
		pr.Timer("ShrinkNbList").Stop(ts)
		if err != nil {
			return err
		}

		// AddLink: wire forward and reverse edges. The new vertex's own
		// lists were freshly allocated, so forward links never overflow;
		// reverse lists that are full are rebuilt afterwards under the
		// ShrinkNbList timer, matching Table III's attribution.
		ts = pr.Timer("AddLink").Start()
		var overflow []scored
		for _, s := range selected {
			if _, err := ix.appendLink(self, s.vid, uint16(lev)); err != nil {
				pr.Timer("AddLink").Stop(ts)
				return err
			}
			full, err := ix.appendLink(s.vid, self, uint16(lev))
			if err != nil {
				pr.Timer("AddLink").Stop(ts)
				return err
			}
			if full {
				overflow = append(overflow, s)
			}
		}
		pr.Timer("AddLink").Stop(ts)

		if len(overflow) > 0 {
			ts = pr.Timer("ShrinkNbList").Start()
			for _, s := range overflow {
				if err := ix.shrinkWith(s.vid, self, uint16(lev)); err != nil {
					pr.Timer("ShrinkNbList").Stop(ts)
					return err
				}
			}
			pr.Timer("ShrinkNbList").Stop(ts)
		}

		if len(cands) > 0 {
			ep, epDist = cands[0].vid, cands[0].dist
		}
	}
	if int32(level) > ix.meta.MaxLevel {
		ix.meta.MaxLevel = int32(level)
		ix.meta.Entry = self
	}
	ix.stats.NAdded++
	return nil
}

// appendLink writes nb into the first free slot of v's list at level.
// When the list is already full it writes nothing and returns true so
// the caller can rebuild the list (with nb included) via shrinkWith.
func (ix *Index) appendLink(v, nb VID, level uint16) (bool, error) {
	if ix.meta.Packed {
		return ix.packedAppendLink(v, nb, level)
	}
	blk := v.NbBlk
	for blk != pase.InvalidBlk {
		buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, blk)
		if err != nil {
			return false, err
		}
		pg := buf.Page()
		n := pg.NumItems()
		for i := uint16(1); i <= n; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return false, err
			}
			_, slotLevel, used := decodeSlot(item)
			if slotLevel != level || used {
				continue
			}
			encodeSlot(item, nb, level, true)
			buf.MarkDirty()
			buf.Release()
			return false, nil
		}
		next := pase.NextBlk(pg)
		buf.Release()
		blk = next
	}
	return true, nil // list full; caller rebuilds via shrinkWith
}

// shrinkWith rebuilds v's adjacency list at level from its current
// neighbors plus extra, using the diversification heuristic. This is the
// expensive PASE path: it re-reads every neighbor vector through the
// buffer pool.
func (ix *Index) shrinkWith(v, extra VID, level uint16) error {
	vvec, err := ix.vectorCopy(v)
	if err != nil {
		return err
	}
	nbs, err := ix.neighborsAt(v, level)
	if err != nil {
		return err
	}
	cands := make([]scored, 0, len(nbs)+1)
	seen := map[uint64]bool{extra.key(): true}
	d, err := ix.distTo(refKern, vvec, extra)
	if err != nil {
		return err
	}
	cands = append(cands, scored{vid: extra, dist: d})
	for _, nb := range nbs {
		if seen[nb.key()] {
			continue
		}
		seen[nb.key()] = true
		d, err := ix.distTo(refKern, vvec, nb)
		if err != nil {
			return err
		}
		cands = append(cands, scored{vid: nb, dist: d})
	}
	sortScored(cands)
	selected, err := ix.selectNeighbors(cands, ix.capAt(level))
	if err != nil {
		return err
	}
	return ix.rewriteLevel(v, level, selected)
}

// rewriteLevel clears every slot of v's list at level and refills them
// with the selected neighbors.
func (ix *Index) rewriteLevel(v VID, level uint16, selected []scored) error {
	if ix.meta.Packed {
		return ix.packedRewriteLevel(v, level, selected)
	}
	idx := 0
	blk := v.NbBlk
	for blk != pase.InvalidBlk {
		buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, blk)
		if err != nil {
			return err
		}
		pg := buf.Page()
		n := pg.NumItems()
		dirty := false
		for i := uint16(1); i <= n; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return err
			}
			_, slotLevel, _ := decodeSlot(item)
			if slotLevel != level {
				continue
			}
			if idx < len(selected) {
				encodeSlot(item, selected[idx].vid, level, true)
				idx++
			} else {
				encodeSlot(item, InvalidVID, level, false)
			}
			dirty = true
		}
		if dirty {
			buf.MarkDirty()
		}
		next := pase.NextBlk(pg)
		buf.Release()
		blk = next
	}
	if idx < len(selected) {
		return fmt.Errorf("pase/hnsw: %d selected neighbors but only %d slots at level %d", len(selected), idx, level)
	}
	return nil
}

// allocNeighborPages allocates the vertex's adjacency pages — always
// starting from a fresh page (RC#4) — pre-filling empty 24-byte slots for
// every level up to the vertex's level.
func (ix *Index) allocNeighborPages(level uint16) (uint32, error) {
	ctx := ix.ctx
	totalSlots := ix.capAt(0)
	for l := uint16(1); l <= level; l++ {
		totalSlots += ix.capAt(l)
	}
	slot := make([]byte, neighborTupleSize)
	var firstBlk = pase.InvalidBlk
	var cur *buffer.Buf
	var curBlk uint32
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
		cur, curBlk = buf, blk
		return nil
	}
	if err := newPage(); err != nil {
		return 0, err
	}
	written := 0
	curLevel := uint16(0)
	remainingAtLevel := ix.capAt(0)
	for written < totalSlots {
		encodeSlot(slot, InvalidVID, curLevel, false)
		if _, err := cur.Page().AddItem(slot); err != nil {
			if !errors.Is(err, page.ErrPageFull) {
				cur.Release()
				return 0, err
			}
			if err := newPage(); err != nil {
				return 0, err
			}
			continue
		}
		written++
		remainingAtLevel--
		if remainingAtLevel == 0 && written < totalSlots {
			curLevel++
			remainingAtLevel = ix.capAt(curLevel)
		}
	}
	cur.MarkDirty()
	cur.Release()
	_ = curBlk
	return firstBlk, nil
}

// appendData stores the vector entry in the shared data pages, returning
// its location.
func (ix *Index) appendData(tid heap.TID, nbBlk uint32, nbOff, level uint16, v []float32) (uint32, uint16, error) {
	ctx := ix.ctx
	entry := make([]byte, dataEntryHeaderSize+len(v)*4)
	encodeDataEntry(entry, tid, nbBlk, nbOff, level, v)

	if ix.meta.LastDataBlk != pase.InvalidBlk {
		buf, err := ctx.Pool.Pin(ctx.Rel, ix.meta.LastDataBlk)
		if err != nil {
			return 0, 0, err
		}
		if off, err := buf.Page().AddItem(entry); err == nil {
			buf.MarkDirty()
			blk := ix.meta.LastDataBlk
			buf.Release()
			return blk, off, nil
		} else if !errors.Is(err, page.ErrPageFull) {
			buf.Release()
			return 0, 0, err
		}
		buf.Release()
	}
	buf, blk, err := ctx.Pool.NewPage(ctx.Rel)
	if err != nil {
		return 0, 0, err
	}
	page.Init(buf.Page(), 0)
	off, err := buf.Page().AddItem(entry)
	if err != nil {
		buf.Release()
		return 0, 0, fmt.Errorf("pase/hnsw: data entry does not fit an empty page: %w", err)
	}
	buf.MarkDirty()
	buf.Release()
	ix.meta.LastDataBlk = blk
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

// scored pairs a vertex with its distance to the current query point.
type scored struct {
	vid  VID
	dist float32
}

func sortScored(s []scored) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].dist < s[j-1].dist; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// vectorCopy reads a vertex's vector out of its data page.
func (ix *Index) vectorCopy(v VID) ([]float32, error) {
	out := make([]float32, ix.meta.Dim)
	err := ix.withVector(v, func(vecView []float32) {
		copy(out, vecView)
	})
	return out, err
}

// withVector pins the vertex's data page and exposes its vector in place
// — the PASE "tuple access" path, timed as such.
func (ix *Index) withVector(v VID, fn func([]float32)) error {
	ts := ix.tTuple.Start()
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.DataBlk)
	if err != nil {
		ix.tTuple.Stop(ts)
		return err
	}
	item, err := buf.Page().Item(v.DataOff)
	if err != nil {
		ix.tTuple.Stop(ts)
		buf.Release()
		return err
	}
	_, _, _, _, vecBytes := decodeDataEntry(item)
	view := pase.Float32View(vecBytes)
	ix.tTuple.Stop(ts)
	fn(view)
	buf.Release()
	return nil
}

// tidOf returns the heap TID stored with a vertex.
func (ix *Index) tidOf(v VID) (heap.TID, error) {
	var tid heap.TID
	ts := ix.tTuple.Start()
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.DataBlk)
	if err != nil {
		ix.tTuple.Stop(ts)
		return tid, err
	}
	item, err := buf.Page().Item(v.DataOff)
	if err == nil {
		tid, _, _, _, _ = decodeDataEntry(item)
	}
	ix.tTuple.Stop(ts)
	buf.Release()
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
	err := ix.withVector(v, func(view []float32) {
		ts := ix.tDist.Start()
		d = kern.L2Sqr(query, view)
		ix.tDist.Stop(ts)
	})
	return d, err
}

// neighborsAt collects the used slots of v's list at level. The chain
// walk and per-item fetches are the pasepfirst cost in Fig 8.
func (ix *Index) neighborsAt(v VID, level uint16) ([]VID, error) {
	if ix.meta.Packed {
		return ix.packedNeighborsAt(v, level)
	}
	ts := ix.tNb.Start()
	defer ix.tNb.Stop(ts)
	var out []VID
	blk := v.NbBlk
	for blk != pase.InvalidBlk {
		buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, blk)
		if err != nil {
			return nil, err
		}
		pg := buf.Page()
		n := pg.NumItems()
		for i := uint16(1); i <= n; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return nil, err
			}
			nb, slotLevel, used := decodeSlot(item)
			if used && slotLevel == level {
				out = append(out, nb)
			}
		}
		next := pase.NextBlk(pg)
		buf.Release()
		blk = next
	}
	return out, nil
}

// greedyClosest walks one level moving to strictly closer neighbors.
func (ix *Index) greedyClosest(kern vec.Kernel, query []float32, ep VID, epDist float32, level uint16) (VID, float32, error) {
	for {
		nbs, err := ix.neighborsAt(ep, level)
		if err != nil {
			return ep, epDist, err
		}
		improved := false
		for _, nb := range nbs {
			d, err := ix.distTo(kern, query, nb)
			if err != nil {
				return ep, epDist, err
			}
			if d < epDist {
				ep, epDist = nb, d
				improved = true
			}
		}
		if !improved {
			return ep, epDist, nil
		}
	}
}

// searchLayer is the beam search at one level. The visited set is a hash
// map over global IDs — PASE's HVTGet — timed separately. A non-nil pred
// makes the search filtering: traversal still explores every neighbor
// (connectivity must not depend on the predicate, or the beam strands in
// filtered-out regions), but only predicate-satisfying vertices enter
// the result heap — in-traversal filtered kNN, the way filtered HNSW
// variants gate the result set.
func (ix *Index) searchLayer(kern vec.Kernel, query []float32, ep VID, epDist float32, ef int, level uint16, pred am.Predicate) ([]scored, error) {
	visited := make(map[uint64]struct{}, 4*ef)
	visited[ep.key()] = struct{}{}

	results := minheap.NewTopK(ef)
	byID := make(map[int64]VID, 4*ef)
	push := func(v VID, d float32) error {
		tid, _, dead, err := ix.entryState(v)
		if err != nil {
			return err
		}
		if dead {
			// Tombstoned vertex: traversal still routes through it (its
			// edges keep the graph connected until Maintain repairs the
			// neighborhood), but it never surfaces as a result.
			return nil
		}
		if pred != nil {
			ok, err := pred(tid)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		id := int64(v.key())
		byID[id] = v
		results.Push(id, d)
		return nil
	}
	if err := push(ep, epDist); err != nil {
		return nil, err
	}

	cq := newCandQueue()
	cq.push(ep, epDist)

	for cq.len() > 0 {
		cur, curDist := cq.pop()
		if worst, full := results.Worst(); full && curDist > worst {
			break
		}
		nbs, err := ix.neighborsAt(cur, level)
		if err != nil {
			return nil, err
		}
		for _, nb := range nbs {
			ts := ix.tVisit.Start()
			_, seen := visited[nb.key()]
			if !seen {
				visited[nb.key()] = struct{}{}
			}
			ix.tVisit.Stop(ts)
			if seen {
				continue
			}
			d, err := ix.distTo(kern, query, nb)
			if err != nil {
				return nil, err
			}
			if worst, full := results.Worst(); !full || d < worst {
				if err := push(nb, d); err != nil {
					return nil, err
				}
				cq.push(nb, d)
			}
		}
	}
	items := results.Results()
	out := make([]scored, len(items))
	for i, it := range items {
		out[i] = scored{vid: byID[it.ID], dist: it.Dist}
	}
	return out, nil
}

// selectNeighbors applies the HNSW diversification heuristic; distances
// between candidates require further tuple accesses, unlike Faiss's
// array reads.
func (ix *Index) selectNeighbors(cands []scored, capacity int) ([]scored, error) {
	if len(cands) <= capacity {
		return cands, nil
	}
	kept := make([]scored, 0, capacity)
	var rejected []scored
	for _, c := range cands {
		if len(kept) >= capacity {
			break
		}
		cvec, err := ix.vectorCopy(c.vid)
		if err != nil {
			return nil, err
		}
		diverse := true
		for _, s := range kept {
			var d float32
			if err := ix.withVector(s.vid, func(view []float32) {
				d = refKern.L2Sqr(cvec, view)
			}); err != nil {
				return nil, err
			}
			if d < c.dist {
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
	return kept, nil
}
