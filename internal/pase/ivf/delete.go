package ivf

import (
	"encoding/binary"
	"errors"

	"vecstudy/internal/pase"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
)

// Delete implements am.Index: the entry for (v, tid) is
// tombstoned in place (its line pointer's dead bit is set) so every
// bucket scan skips it immediately; the bytes stay on the page until
// Maintain compacts the bucket chain. The owning bucket is re-derived
// from v — nearestCentroid is deterministic, so the bucket chosen here
// is the one Insert/Build appended the entry to.
func (ix *Index) Delete(v []float32, tid heap.TID) (bool, error) {
	if err := ix.checkDim("delete", v); err != nil {
		return false, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	found, err := ix.tombstone(ix.nearestCentroid(v), tid)
	if err != nil || !found {
		return false, err
	}
	ix.dead.Add(1)
	return true, nil
}

// DeadCount implements am.Index.
func (ix *Index) DeadCount() int64 { return ix.dead.Load() }

// tombstone walks bucket cid's chain, marks the entry with the given
// heap TID dead, and decrements the bucket's population counter.
func (ix *Index) tombstone(cid int, tid heap.TID) (found bool, err error) {
	pool, rel := ix.ctx.Pool, ix.ctx.Rel
	err = ix.withBucket(cid, func(trailer []byte) (bool, error) {
		next := binary.LittleEndian.Uint32(trailer[trHead:])
		for next != pase.InvalidBlk && !found {
			dbuf, err := pool.Pin(rel, next)
			if err != nil {
				return false, err
			}
			pg := dbuf.Page()
			for i := uint16(1); i <= pg.NumItems() && !found; i++ {
				item, err := pg.Item(i)
				if errors.Is(err, page.ErrDeadItem) {
					continue
				}
				if err == nil && heap.UnpackTID(item) == tid {
					err = pg.DeleteItem(i)
					found = err == nil
				}
				if err != nil {
					dbuf.Release()
					return false, err
				}
			}
			if found {
				dbuf.MarkDirty()
			}
			next = pase.NextBlk(pg)
			dbuf.Release()
		}
		if found {
			bumpCount(trailer, -1)
		}
		return found, nil
	})
	return found, err
}

// Maintain implements am.Index: every bucket chain is rewritten
// in place dropping tombstoned entries — IVF list compaction. Live
// entries repack into the chain's existing pages front to back (entry
// size is uniform, so the repack always fits); pages past the new tail
// are unlinked from the chain and orphaned (block-level reclamation
// would need a free-space map, which the substrate doesn't have — same
// trade PostgreSQL makes without VACUUM FULL). Returns the number of
// tombstones removed.
func (ix *Index) Maintain() (int64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var removed int64
	for cid := 0; cid < int(ix.meta.NList); cid++ {
		n, err := ix.compactBucket(cid)
		if err != nil {
			return removed, err
		}
		removed += n
	}
	ix.dead.Store(0)
	return removed, nil
}

// compactBucket rewrites one bucket's chain dropping dead entries.
func (ix *Index) compactBucket(cid int) (dead int64, err error) {
	pool, rel := ix.ctx.Pool, ix.ctx.Rel
	err = ix.withBucket(cid, func(trailer []byte) (bool, error) {
		// Pass 1: collect live entries and the chain's block numbers.
		var entries [][]byte
		var chain []uint32
		for next := binary.LittleEndian.Uint32(trailer[trHead:]); next != pase.InvalidBlk; {
			dbuf, err := pool.Pin(rel, next)
			if err != nil {
				return false, err
			}
			pg := dbuf.Page()
			chain = append(chain, next)
			for i := uint16(1); i <= pg.NumItems(); i++ {
				item, err := pg.Item(i)
				if errors.Is(err, page.ErrDeadItem) {
					dead++
					continue
				}
				if err != nil {
					dbuf.Release()
					return false, err
				}
				entries = append(entries, append([]byte(nil), item...))
			}
			next = pase.NextBlk(pg)
			dbuf.Release()
		}
		if dead == 0 {
			return false, nil
		}

		// Pass 2: rewrite the chain's pages front to back with the live
		// entries, terminating the chain at the last page used.
		ei := 0
		for pi, blk := range chain {
			dbuf, err := pool.Pin(rel, blk)
			if err != nil {
				return false, err
			}
			pg := dbuf.Page()
			page.Init(pg, pase.ChainSpecialSize)
			for ; ei < len(entries); ei++ {
				if _, err = pg.AddItem(entries[ei]); err != nil {
					break
				}
			}
			done := ei == len(entries)
			switch {
			case done:
				pase.SetNextBlk(pg, pase.InvalidBlk)
			case !errors.Is(err, page.ErrPageFull):
				// a real AddItem failure: returned once the page is released
			case pi+1 == len(chain):
				err = ix.errorf("bucket %d repack overflowed its chain", cid)
			default:
				pase.SetNextBlk(pg, chain[pi+1])
				err = nil
			}
			dbuf.MarkDirty()
			dbuf.Release()
			if err != nil {
				return false, err
			}
			if done {
				binary.LittleEndian.PutUint32(trailer[trTail:], blk)
				break
			}
		}
		binary.LittleEndian.PutUint32(trailer[trCount:], uint32(len(entries)))
		return true, nil
	})
	return dead, err
}
