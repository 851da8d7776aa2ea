// Package hnsw implements the PASE-style HNSW index access method on the
// PostgreSQL substrate. Its on-page layout reproduces the two structures
// the paper blames for RC#2 and RC#4:
//
//   - Every vertex's adjacency lists start on a **fresh page** of
//     fixed-size 24-byte HNSWNeighborTuple items (one per neighbor slot),
//     so a bnn=16 vertex occupies a whole 8 KiB page for ~1 KiB of
//     payload — the source of the 2.9–13.3× size blow-up in Fig 13 and
//     the halving under 4 KiB pages in Table IV.
//   - Every vector read, neighbor-list traversal (pasepfirst), and
//     visited check (HVTGet, a hash over global IDs instead of Faiss's
//     epoch array) goes through the shared buffer pool, which is what
//     makes SearchNbToAdd 3.4× slower than Faiss in Table III / Fig 8.
package hnsw

import (
	"encoding/binary"

	"vecstudy/internal/pase"
	"vecstudy/internal/pg/heap"
)

// VID is the in-memory form of the paper's HNSWGlobalId: where the
// vertex's vector lives (dblkid, doffset) and where its neighbor lists
// start (nblkid). In the packed layout (the paper's "memory-optimized
// table design" future direction) NbOff addresses the vertex's single
// adjacency blob item within a shared page; in the faithful PASE layout
// it is unused (each vertex owns its pages).
type VID struct {
	NbBlk   uint32 // first neighbor page
	DataBlk uint32 // data page holding the vector entry
	DataOff uint16 // item offset within the data page
	NbOff   uint16 // adjacency blob item offset (packed layout only)
}

// InvalidVID is the nil vertex reference.
var InvalidVID = VID{NbBlk: pase.InvalidBlk, DataBlk: pase.InvalidBlk}

// Valid reports whether v references a vertex.
func (v VID) Valid() bool { return v.DataBlk != pase.InvalidBlk }

// key packs the vertex's data location into a hash key for the visited
// table (HVTGet hashes the same global-ID bytes in PASE).
func (v VID) key() uint64 { return uint64(v.DataBlk)<<16 | uint64(v.DataOff) }

// neighborTupleSize is sizeof(HNSWNeighborTuple) in PASE: an 8-byte
// PaseTuple virtual-link pointer plus the 12-byte HNSWGlobalId, padded to
// 24 by alignment. Our layout packs the same information:
//
//	[0:4]   nblkid   — neighbor's first neighbor page
//	[4:8]   dblkid   — neighbor's data page
//	[8:10]  doffset  — neighbor's data item
//	[10:12] level    — which graph level this slot belongs to
//	[12:13] used     — slot occupancy flag
//	[13:16] padding
//	[16:24] reserved — stands in for the PaseTuple pointer
const neighborTupleSize = 24

// encodeSlot serializes an adjacency slot.
func encodeSlot(b []byte, nb VID, level uint16, used bool) {
	binary.LittleEndian.PutUint32(b[0:], nb.NbBlk)
	binary.LittleEndian.PutUint32(b[4:], nb.DataBlk)
	binary.LittleEndian.PutUint16(b[8:], nb.DataOff)
	binary.LittleEndian.PutUint16(b[10:], level)
	if used {
		b[12] = 1
	} else {
		b[12] = 0
	}
	b[13] = 0
	binary.LittleEndian.PutUint16(b[14:], nb.NbOff)
	for i := 16; i < neighborTupleSize; i++ {
		b[i] = 0
	}
}

// decodeSlot deserializes an adjacency slot.
func decodeSlot(b []byte) (nb VID, level uint16, used bool) {
	nb.NbBlk = binary.LittleEndian.Uint32(b[0:])
	nb.DataBlk = binary.LittleEndian.Uint32(b[4:])
	nb.DataOff = binary.LittleEndian.Uint16(b[8:])
	level = binary.LittleEndian.Uint16(b[10:])
	used = b[12] != 0
	nb.NbOff = binary.LittleEndian.Uint16(b[14:])
	return
}

// emptySlots returns a new vertex's adjacency slots, every one free:
// 2·bnn at level 0, then bnn per level up to level. The packed layout
// stores them as one blob item, the paged layout one item per slot.
func (ix *Index) emptySlots(level uint16) []byte {
	var slots []byte
	slot := make([]byte, neighborTupleSize)
	for l := uint16(0); l <= level; l++ {
		encodeSlot(slot, InvalidVID, l, false)
		for range ix.walk.Capacity(int(l)) {
			slots = append(slots, slot...)
		}
	}
	return slots
}

// data entry layout: heap TID (6) + pad (2) + nblkid (4) + level (2) +
// nboff (2), then the vector at a MAXALIGN-compatible offset.
const dataEntryHeaderSize = 16

func encodeDataEntry(b []byte, tid heap.TID, nbBlk uint32, nbOff, level uint16, v []float32) {
	tid.Pack(b)
	b[6], b[7] = 0, 0
	binary.LittleEndian.PutUint32(b[8:], nbBlk)
	binary.LittleEndian.PutUint16(b[12:], level)
	binary.LittleEndian.PutUint16(b[14:], nbOff)
	pase.PutFloat32s(b[dataEntryHeaderSize:], v)
}

// decodeDataLevel reads just the level field of a data entry.
func decodeDataLevel(b []byte) uint16 { return binary.LittleEndian.Uint16(b[12:]) }

func decodeDataEntry(b []byte) (tid heap.TID, nbBlk uint32, nbOff, level uint16, vecBytes []byte) {
	tid = heap.UnpackTID(b)
	nbBlk = binary.LittleEndian.Uint32(b[8:])
	level = binary.LittleEndian.Uint16(b[12:])
	nbOff = binary.LittleEndian.Uint16(b[14:])
	vecBytes = b[dataEntryHeaderSize:]
	return
}

// meta page (block 0) layout.
type meta struct {
	Dim         uint32
	BNN         uint32
	EFB         uint32
	MaxLevel    int32 // -1 when empty
	Entry       VID
	LastDataBlk uint32 // append hint for data entries
	NVertices   uint32
	Packed      bool   // memory-optimized adjacency layout (RC#4 bridged)
	LastNbBlk   uint32 // append hint for packed adjacency blobs
}

func encodeMeta(m meta) []byte {
	b := make([]byte, 48)
	binary.LittleEndian.PutUint32(b[0:], m.Dim)
	binary.LittleEndian.PutUint32(b[4:], m.BNN)
	binary.LittleEndian.PutUint32(b[8:], m.EFB)
	binary.LittleEndian.PutUint32(b[12:], uint32(m.MaxLevel))
	binary.LittleEndian.PutUint32(b[16:], m.Entry.NbBlk)
	binary.LittleEndian.PutUint32(b[20:], m.Entry.DataBlk)
	binary.LittleEndian.PutUint16(b[24:], m.Entry.DataOff)
	binary.LittleEndian.PutUint16(b[26:], m.Entry.NbOff)
	binary.LittleEndian.PutUint32(b[28:], m.LastDataBlk)
	binary.LittleEndian.PutUint32(b[32:], m.NVertices)
	if m.Packed {
		b[36] = 1
	}
	binary.LittleEndian.PutUint32(b[40:], m.LastNbBlk)
	return b
}

func decodeMeta(b []byte) meta {
	return meta{
		Dim:      binary.LittleEndian.Uint32(b[0:]),
		BNN:      binary.LittleEndian.Uint32(b[4:]),
		EFB:      binary.LittleEndian.Uint32(b[8:]),
		MaxLevel: int32(binary.LittleEndian.Uint32(b[12:])),
		Entry: VID{
			NbBlk:   binary.LittleEndian.Uint32(b[16:]),
			DataBlk: binary.LittleEndian.Uint32(b[20:]),
			DataOff: binary.LittleEndian.Uint16(b[24:]),
			NbOff:   binary.LittleEndian.Uint16(b[26:]),
		},
		LastDataBlk: binary.LittleEndian.Uint32(b[28:]),
		NVertices:   binary.LittleEndian.Uint32(b[32:]),
		Packed:      b[36] != 0,
		LastNbBlk:   binary.LittleEndian.Uint32(b[40:]),
	}
}
