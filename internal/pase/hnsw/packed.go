package hnsw

import (
	"errors"
	"fmt"

	"vecstudy/internal/pase"
	"vecstudy/internal/pg/page"
)

// This file implements the *packed* adjacency layout — the paper's
// "memory-optimized table design" future direction (Sec IX-C Step#1,
// bridging RC#4). Instead of a fresh page per vertex holding one 24-byte
// item per neighbor slot, each vertex's entire adjacency state is a
// single blob item (totalSlots × 24 bytes) appended to a shared page.
// Multiple vertices share pages, so the space overhead drops from ~1 page
// per vertex to the blob payload itself, and a vertex's whole
// neighborhood is read with one pin + one line-pointer lookup.

// blobSlots returns the slot count for a vertex of the given level.
func (ix *Index) blobSlots(level uint16) int {
	total := ix.capAt(0)
	for l := uint16(1); l <= level; l++ {
		total += ix.capAt(l)
	}
	return total
}

// allocPackedBlob appends an all-empty adjacency blob for a new vertex,
// sharing pages with earlier vertices. It returns the blob's location.
func (ix *Index) allocPackedBlob(level uint16) (uint32, uint16, error) {
	ctx := ix.ctx
	blob := make([]byte, ix.blobSlots(level)*neighborTupleSize)
	slotLevel := uint16(0)
	remaining := ix.capAt(0)
	for i := 0; i < len(blob); i += neighborTupleSize {
		encodeSlot(blob[i:], InvalidVID, slotLevel, false)
		remaining--
		if remaining == 0 {
			slotLevel++
			remaining = ix.capAt(slotLevel)
		}
	}
	if ix.meta.LastNbBlk != pase.InvalidBlk {
		buf, err := ctx.Pool.Pin(ctx.Rel, ix.meta.LastNbBlk)
		if err != nil {
			return 0, 0, err
		}
		if off, err := buf.Page().AddItem(blob); err == nil {
			buf.MarkDirty()
			blk := ix.meta.LastNbBlk
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
	off, err := buf.Page().AddItem(blob)
	if err != nil {
		buf.Release()
		return 0, 0, fmt.Errorf("pase/hnsw: adjacency blob of %d bytes does not fit a %d-byte page; use the chained layout for this bnn", len(blob), ctx.Pool.PageSize())
	}
	buf.MarkDirty()
	buf.Release()
	ix.meta.LastNbBlk = blk
	return blk, off, nil
}

// withBlob pins the vertex's adjacency blob and passes the in-place slice
// to fn; fn returns whether it mutated the blob.
func (ix *Index) withBlob(v VID, fn func(blob []byte) (bool, error)) error {
	buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, v.NbBlk)
	if err != nil {
		return err
	}
	item, err := buf.Page().Item(v.NbOff)
	if err != nil {
		buf.Release()
		return err
	}
	dirty, err := fn(item)
	if dirty {
		buf.MarkDirty()
	}
	buf.Release()
	return err
}

// packedNeighborsAt reads the used slots of one level from the blob.
func (ix *Index) packedNeighborsAt(v VID, level uint16) ([]VID, error) {
	ts := ix.tNb.Start()
	defer ix.tNb.Stop(ts)
	var out []VID
	err := ix.withBlob(v, func(blob []byte) (bool, error) {
		for i := 0; i+neighborTupleSize <= len(blob); i += neighborTupleSize {
			nb, slotLevel, used := decodeSlot(blob[i:])
			if used && slotLevel == level {
				out = append(out, nb)
			}
		}
		return false, nil
	})
	return out, err
}

// packedAppendLink writes nb into the first free slot at level, returning
// full=true (and writing nothing) when the level's slots are exhausted.
func (ix *Index) packedAppendLink(v, nb VID, level uint16) (bool, error) {
	full := true
	err := ix.withBlob(v, func(blob []byte) (bool, error) {
		for i := 0; i+neighborTupleSize <= len(blob); i += neighborTupleSize {
			_, slotLevel, used := decodeSlot(blob[i:])
			if slotLevel == level && !used {
				encodeSlot(blob[i:], nb, level, true)
				full = false
				return true, nil
			}
		}
		return false, nil
	})
	return full, err
}

// packedRewriteLevel replaces the level's slots with selected.
func (ix *Index) packedRewriteLevel(v VID, level uint16, selected []scored) error {
	idx := 0
	err := ix.withBlob(v, func(blob []byte) (bool, error) {
		for i := 0; i+neighborTupleSize <= len(blob); i += neighborTupleSize {
			_, slotLevel, _ := decodeSlot(blob[i:])
			if slotLevel != level {
				continue
			}
			if idx < len(selected) {
				encodeSlot(blob[i:], selected[idx].vid, level, true)
				idx++
			} else {
				encodeSlot(blob[i:], InvalidVID, level, false)
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if idx < len(selected) {
		return fmt.Errorf("pase/hnsw: %d selected neighbors but only %d packed slots at level %d", len(selected), idx, level)
	}
	return nil
}
