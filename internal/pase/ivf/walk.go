package ivf

import (
	"encoding/binary"
	"errors"
	"slices"

	"vecstudy/internal/pase"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
)

// chainWalk is walk's reusable state: views of the current segment's
// entries, escorted by the pins that keep the views alive. kept (the
// entries a predicate admitted) is the scanner's derived view of the same
// segment; it lives here so that it, too, sits beside the pins.
type chainWalk struct {
	entries [][]byte
	pinned  []*buffer.Buf
	kept    [][]byte
}

func (w *chainWalk) release() {
	for _, b := range w.pinned {
		b.Release()
	}
	w.entries, w.pinned = w.entries[:0], w.pinned[:0]
}

// walk is the one bucket-chain walker. It visits bucket cid's live
// entries in chain order, handing visit views of them that alias pinned
// page memory and are valid only for the duration of the call.
// Tombstoned entries are skipped. The walker reads line pointers only:
// an entry's bytes are first touched by whoever scores it, so a page is
// streamed through the cache once.
//
// With perPage set, visit sees one page at a time and at most one data
// page is pinned — the solo scan's RC#2 access pattern. Otherwise the
// visited pages stay pinned and visit sees the whole chain as one
// segment, so a batch kernel gets the longest possible run of rows; if
// the pool runs out of unpinned frames mid-chain the segment collected so
// far is flushed and released before the walk continues, so the scan
// degrades gracefully at any pool size. Either way the concatenation of
// the segments is the full bucket in chain order.
func (ix *Index) walk(cid int32, w *chainWalk, perPage bool, visit func(entries [][]byte) error) error {
	pool, rel := ix.ctx.Pool, ix.ctx.Rel
	var next uint32
	err := ix.withBucket(int(cid), func(trailer []byte) (bool, error) {
		next = binary.LittleEndian.Uint32(trailer[trHead:])
		return false, nil
	})
	if err != nil {
		return err
	}

	w.release()
	flush := func() error {
		var err error
		if len(w.entries) > 0 {
			err = visit(w.entries)
		}
		w.release()
		return err
	}
	for next != pase.InvalidBlk {
		dbuf, err := pool.Pin(rel, next)
		if err != nil {
			if !errors.Is(err, buffer.ErrNoUnpinned) || len(w.pinned) == 0 {
				w.release()
				return err
			}
			// Pool exhausted mid-chain: hand the segment collected so far
			// to visit, drop its pins, and retry the page once.
			if err := flush(); err != nil {
				return err
			}
			if dbuf, err = pool.Pin(rel, next); err != nil {
				return err
			}
		}
		w.pinned = append(w.pinned, dbuf)
		pg := dbuf.Page()
		n := pg.NumItems()
		w.entries = slices.Grow(w.entries, int(n))
		for i := uint16(1); i <= n; i++ {
			item, err := pg.Item(i)
			if err != nil {
				if errors.Is(err, page.ErrDeadItem) {
					continue // tombstoned entry: skip, reclaimed by Maintain
				}
				w.release()
				return err
			}
			w.entries = append(w.entries, item)
		}
		next = pase.NextBlk(pg)
		if perPage {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// entryID is the packed heap TID an entry leads with.
func entryID(entry []byte) int64 { return packTID(heap.UnpackTID(entry)) }

// packTID squeezes a TID into an int64 for the heap item ID.
func packTID(tid heap.TID) int64 {
	return int64(tid.Blk)<<16 | int64(tid.Off)
}

func unpackTID(v int64) heap.TID {
	return heap.TID{Blk: uint32(v >> 16), Off: uint16(v & 0xFFFF)}
}
