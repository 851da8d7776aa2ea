package hnsw

import (
	"fmt"

	"vecstudy/internal/hnswalk"
	"vecstudy/internal/pg/heap"
)

// Tombstones. A deleted vertex cannot simply vanish from the graph: its
// edges may be the only paths between regions, and HNSW's recall rests
// on that connectivity. So Delete only sets a tombstone byte in the
// vertex's data entry (pad byte 6 of the 16-byte header): searchLayer
// keeps traversing through tombstoned vertices but never admits them to
// the result heap. Maintain later repairs every live neighborhood —
// dropping dead neighbors and reconnecting through their live neighbors
// — then unlinks the dead data entries for real.

// entryState reads a vertex's data-entry header: its heap TID, its top
// graph level, and whether it is tombstoned.
func (ix *Index) entryState(v VID) (tid heap.TID, level uint16, dead bool, err error) {
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.DataBlk)
	if err != nil {
		return tid, 0, false, err
	}
	item, err := buf.Page().Item(v.DataOff)
	if err == nil {
		tid = heap.UnpackTID(item)
		level = decodeDataLevel(item)
		dead = item[6] != 0
	}
	buf.Release()
	return tid, level, dead, err
}

// setTombstone flips the tombstone byte on a vertex's data entry.
func (ix *Index) setTombstone(v VID) error {
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.DataBlk)
	if err != nil {
		return err
	}
	item, err := buf.Page().Item(v.DataOff)
	if err == nil {
		item[6] = 1
		buf.MarkDirty()
	}
	buf.Release()
	return err
}

// Delete implements am.Index. The vector argument is unused:
// unlike IVF's deterministic coarse assignment, a vector does not locate
// its HNSW vertex, so the lookup goes through the in-memory TID map.
func (ix *Index) Delete(_ []float32, tid heap.TID) (bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	vid, ok := ix.tids[tid]
	if !ok {
		return false, nil
	}
	if err := ix.setTombstone(vid); err != nil {
		return false, err
	}
	delete(ix.tids, tid)
	ix.tombs[vid.key()] = vid
	ix.dead.Add(1)
	if ix.meta.NVertices > 0 {
		ix.meta.NVertices--
	}
	return true, ix.saveMeta()
}

// DeadCount implements am.Index.
func (ix *Index) DeadCount() int64 { return ix.dead.Load() }

// Maintain implements am.Index: graph repair. For every live
// vertex whose adjacency list references a tombstoned vertex, the list
// is rebuilt from its remaining live neighbors plus the dead vertices'
// own live neighbors (one-hop reconnection), re-ranked by the standard
// diversification heuristic. Then a dead entry point is replaced by the
// highest-levelled live vertex, and the dead data entries are unlinked.
// The dead vertices' adjacency pages are orphaned — block reclamation
// would need a free-space map the substrate doesn't have.
//
// Per-vertex repairs are order-independent: a rewrite reads only the
// vertex's own list and dead vertices' lists, and dead lists are never
// rewritten, so results don't depend on map iteration order.
func (ix *Index) Maintain() (int64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.tombs) == 0 {
		ix.dead.Store(0)
		return 0, nil
	}

	for _, v := range ix.tids {
		_, topLevel, _, err := ix.entryState(v)
		if err != nil {
			return 0, err
		}
		for lev := uint16(0); lev <= topLevel; lev++ {
			if err := ix.repairLevel(v, lev); err != nil {
				return 0, err
			}
		}
	}

	if _, entryDead := ix.tombs[ix.meta.Entry.key()]; entryDead || !ix.meta.Entry.Valid() {
		if err := ix.electEntry(); err != nil {
			return 0, err
		}
	}

	removed := int64(len(ix.tombs))
	for _, v := range ix.tombs {
		// Maintenance holds ix.mu for its whole run by design: repair must
		// see a frozen graph, and concurrent searches are excluded anyway
		// by the executor's statement gate.
		//vetvec:locked-io
		buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.DataBlk)
		if err != nil {
			return 0, err
		}
		err = buf.Page().DeleteItem(v.DataOff)
		if err == nil {
			buf.MarkDirty()
		}
		buf.Release()
		if err != nil {
			return 0, err
		}
	}
	ix.tombs = make(map[uint64]VID)
	ix.dead.Store(0)
	return removed, ix.saveMeta()
}

// repairLevel rewrites v's adjacency list at one level if it references
// any tombstoned vertex.
func (ix *Index) repairLevel(v VID, level uint16) error {
	nbs, err := ix.neighborsAt(v, level, nil)
	if err != nil {
		return err
	}
	hasDead := false
	for _, nb := range nbs {
		if _, ok := ix.tombs[nb.key()]; ok {
			hasDead = true
			break
		}
	}
	if !hasDead {
		return nil
	}

	g := ix.build
	vvec, err := g.Vector(v)
	if err != nil {
		return err
	}
	seen := map[uint64]bool{v.key(): true}
	var cands []hnswalk.Scored[VID]
	add := func(nb VID) error {
		if seen[nb.key()] {
			return nil
		}
		seen[nb.key()] = true
		if _, dead := ix.tombs[nb.key()]; dead {
			return nil
		}
		d, err := g.Dist(vvec, nb)
		if err != nil {
			return err
		}
		cands = append(cands, hnswalk.Scored[VID]{V: nb, Dist: d})
		return nil
	}
	for _, nb := range nbs {
		if _, dead := ix.tombs[nb.key()]; !dead {
			if err := add(nb); err != nil {
				return err
			}
			continue
		}
		// Reconnect through the dead neighbor's own live neighbors so
		// the region it bridged stays reachable.
		hops, err := ix.neighborsAt(nb, level, nil)
		if err != nil {
			return err
		}
		for _, hop := range hops {
			if err := add(hop); err != nil {
				return err
			}
		}
	}
	return ix.walk.Relink(g, v, int(level), cands)
}

// electEntry replaces a dead entry point with the highest-levelled live
// vertex — among equals the one at the lowest (DataBlk, DataOff), so the
// election, and with it every later scan, does not depend on map
// iteration order — or marks the graph empty when none remain.
func (ix *Index) electEntry() error {
	best := InvalidVID
	bestLevel := int32(-1)
	for _, v := range ix.tids {
		_, level, _, err := ix.entryState(v)
		if err != nil {
			return err
		}
		lower := v.DataBlk < best.DataBlk || v.DataBlk == best.DataBlk && v.DataOff < best.DataOff
		if l := int32(level); l > bestLevel || l == bestLevel && lower {
			best, bestLevel = v, l
		}
	}
	ix.meta.Entry = best
	ix.meta.MaxLevel = bestLevel
	if !best.Valid() && len(ix.tids) > 0 {
		return fmt.Errorf("pase/hnsw: %d live vertices but no entry candidate", len(ix.tids))
	}
	return nil
}
