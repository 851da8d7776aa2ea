package ivf

import (
	"encoding/binary"
	"errors"

	"vecstudy/internal/pase"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
)

// Relation layout: block 0 is the meta page; centroid pages follow from
// block 1; then the codec's aux pages (PQ codebooks, SQ8 grid); every
// later block is a bucket-chain data page.
//
// A centroid entry is the full-precision vector (dim·4 bytes) followed
// by the bucket's bookkeeping trailer. A data entry is its header
// followed by the codec's payload.
const centroidTrailerSize = 16 // head u32 | tail u32 | count u32 | pad u32

// EntryHeaderSize is the length of the header every data entry leads
// with: the packed heap TID (6) + pad (2), so the payload lands
// MAXALIGN-compatible.
const EntryHeaderSize = 8

// Offsets into a centroid entry's trailer.
const (
	trHead  = 0 // first data page of the bucket chain
	trTail  = 4 // last data page (append target)
	trCount = 8 // live entries
)

// meta is item 1 of block 0.
type meta struct {
	Dim              uint32
	NList            uint32
	FirstCentroidBlk uint32
	CentroidsPerPage uint32
	FirstAuxBlk      uint32
	AuxItems         uint32
}

func encodeMeta(m meta) []byte {
	b := make([]byte, 24)
	for i, v := range []uint32{m.Dim, m.NList, m.FirstCentroidBlk, m.CentroidsPerPage, m.FirstAuxBlk, m.AuxItems} {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

func decodeMeta(b []byte) meta {
	u := func(i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }
	return meta{Dim: u(0), NList: u(1), FirstCentroidBlk: u(2), CentroidsPerPage: u(3), FirstAuxBlk: u(4), AuxItems: u(5)}
}

// initPages lays out the meta page, the centroid pages, and the codec's
// aux pages.
func (ix *Index) initPages(centroids []float32, nlist int) error {
	ctx := ix.ctx
	d := ctx.Dim
	entrySize := d*4 + centroidTrailerSize
	usable := ctx.Pool.PageSize() - page.HeaderSize
	perPage := usable / (entrySize + page.ItemIDSize + page.MaxAlign)
	if perPage == 0 {
		return ix.errorf("centroid entry of %d bytes does not fit page", entrySize)
	}
	aux := ix.codec.Marshal()

	metaBuf, metaBlk, err := ctx.Pool.NewPage(ctx.Rel)
	if err != nil {
		return err
	}
	if metaBlk != 0 {
		metaBuf.Release()
		return ix.errorf("meta page allocated at block %d", metaBlk)
	}
	page.Init(metaBuf.Page(), 0)
	ix.meta = meta{
		Dim: uint32(d), NList: uint32(nlist), FirstCentroidBlk: 1, CentroidsPerPage: uint32(perPage),
		FirstAuxBlk: uint32(1 + (nlist+perPage-1)/perPage), AuxItems: uint32(len(aux)),
	}
	_, err = metaBuf.Page().AddItem(encodeMeta(ix.meta))
	metaBuf.MarkDirty()
	metaBuf.Release()
	if err != nil {
		return err
	}

	entry := make([]byte, entrySize)
	trailer := entry[d*4:]
	binary.LittleEndian.PutUint32(trailer[trHead:], pase.InvalidBlk)
	binary.LittleEndian.PutUint32(trailer[trTail:], pase.InvalidBlk)
	for written := 0; written < nlist; {
		buf, _, err := ctx.Pool.NewPage(ctx.Rel)
		if err != nil {
			return err
		}
		page.Init(buf.Page(), 0)
		for i := 0; i < perPage && written < nlist; i++ {
			pase.PutFloat32s(entry, centroids[written*d:(written+1)*d])
			if _, err := buf.Page().AddItem(entry); err != nil {
				buf.Release()
				return err
			}
			written++
		}
		buf.MarkDirty()
		buf.Release()
	}
	ix.centroids = append([]float32(nil), centroids...)

	// Aux pages: the codec's items packed sequentially onto fresh pages.
	for len(aux) > 0 {
		buf, _, err := ctx.Pool.NewPage(ctx.Rel)
		if err != nil {
			return err
		}
		page.Init(buf.Page(), 0)
		n := 0
		for ; n < len(aux); n++ {
			if _, err = buf.Page().AddItem(aux[n]); err != nil {
				break
			}
		}
		buf.MarkDirty()
		buf.Release()
		if err != nil && (n == 0 || !errors.Is(err, page.ErrPageFull)) {
			return ix.errorf("aux item of %d bytes: %w", len(aux[n]), err)
		}
		aux = aux[n:]
	}
	return nil
}

// loadPages reads the centroid vectors and the codec's aux items back
// from an existing relation.
func (ix *Index) loadPages() error {
	d := int(ix.meta.Dim)
	nlist := int(ix.meta.NList)
	ix.centroids = make([]float32, 0, nlist*d)
	err := ix.readItems(ix.meta.FirstCentroidBlk, nlist, func(item []byte) {
		ix.centroids = append(ix.centroids, pase.Float32View(item[:d*4])...)
	})
	if err != nil {
		return err
	}
	aux := make([][]byte, 0, ix.meta.AuxItems)
	err = ix.readItems(ix.meta.FirstAuxBlk, int(ix.meta.AuxItems), func(item []byte) {
		aux = append(aux, append([]byte(nil), item...))
	})
	if err != nil {
		return err
	}
	return ix.codec.Unmarshal(d, aux)
}

// readItems visits the first n items stored on consecutive pages from
// blk on. The item view is valid only during the callback.
func (ix *Index) readItems(blk uint32, n int, visit func(item []byte)) error {
	for read := 0; read < n; blk++ {
		buf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, blk)
		if err != nil {
			return err
		}
		pg := buf.Page()
		for i := uint16(1); i <= pg.NumItems() && read < n; i++ {
			item, err := pg.Item(i)
			if err != nil {
				buf.Release()
				return err
			}
			visit(item)
			read++
		}
		buf.Release()
	}
	return nil
}

// withBucket pins bucket cid's centroid entry and runs fn on its
// bookkeeping trailer (a view into the pinned page, valid only during
// fn); fn reports whether it changed the trailer.
func (ix *Index) withBucket(cid int, fn func(trailer []byte) (dirty bool, err error)) error {
	per := int(ix.meta.CentroidsPerPage)
	cbuf, err := ix.ctx.Pool.Pin(ix.ctx.Rel, ix.meta.FirstCentroidBlk+uint32(cid/per))
	if err != nil {
		return err
	}
	defer cbuf.Release()
	centry, err := cbuf.Page().Item(uint16(cid%per) + 1)
	if err != nil {
		return err
	}
	dirty, err := fn(centry[int(ix.meta.Dim)*4:])
	if dirty {
		cbuf.MarkDirty()
	}
	return err
}

// appendEntry encodes (x, tid) and adds it to bucket cid's data-page
// chain, extending the chain when the tail page is full.
func (ix *Index) appendEntry(cid int, x []float32, tid heap.TID) error {
	if ix.entry == nil {
		ix.entry = make([]byte, EntryHeaderSize+ix.codec.PayloadSize())
	}
	entry := ix.entry
	tid.Pack(entry)
	ix.codec.Encode(x, ix.centroid(cid), entry[EntryHeaderSize:])

	pool, rel := ix.ctx.Pool, ix.ctx.Rel
	return ix.withBucket(cid, func(trailer []byte) (bool, error) {
		tail := binary.LittleEndian.Uint32(trailer[trTail:])
		if tail != pase.InvalidBlk {
			dbuf, err := pool.Pin(rel, tail)
			if err != nil {
				return false, err
			}
			_, err = dbuf.Page().AddItem(entry)
			if err == nil {
				dbuf.MarkDirty()
			}
			dbuf.Release()
			if err == nil {
				bumpCount(trailer, 1)
				return true, nil
			}
			if !errors.Is(err, page.ErrPageFull) {
				return false, err
			}
		}
		// A fresh page: the bucket's head, or chained after the full tail.
		nbuf, nblk, err := pool.NewPage(rel)
		if err != nil {
			return false, err
		}
		page.Init(nbuf.Page(), pase.ChainSpecialSize)
		pase.SetNextBlk(nbuf.Page(), pase.InvalidBlk)
		_, err = nbuf.Page().AddItem(entry)
		nbuf.MarkDirty()
		nbuf.Release()
		if err != nil {
			return false, err
		}
		if tail == pase.InvalidBlk {
			binary.LittleEndian.PutUint32(trailer[trHead:], nblk)
		} else {
			dbuf, err := pool.Pin(rel, tail)
			if err != nil {
				return false, err
			}
			pase.SetNextBlk(dbuf.Page(), nblk)
			dbuf.MarkDirty()
			dbuf.Release()
		}
		binary.LittleEndian.PutUint32(trailer[trTail:], nblk)
		bumpCount(trailer, 1)
		return true, nil
	})
}

// bumpCount adjusts the bucket population stored in the centroid entry.
func bumpCount(trailer []byte, delta int32) {
	count := int32(binary.LittleEndian.Uint32(trailer[trCount:])) + delta
	if count < 0 {
		count = 0
	}
	binary.LittleEndian.PutUint32(trailer[trCount:], uint32(count))
}
