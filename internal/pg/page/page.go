// Package page implements PostgreSQL-style slotted pages: a fixed-size
// byte array with a 24-byte header, an array of 4-byte line pointers
// (item IDs) growing downward from the header, tuple data growing upward
// from the end, and an optional "special space" reserved at the tail for
// access-method metadata.
//
// This layout is the heart of the paper's RC#2 and RC#4: every tuple and
// index entry in the generalized engine lives inside one of these pages
// and is reached through (block, offset) indirection, and the
// page-granular allocation is what blows up the PASE HNSW index size
// (Fig 13 / Table IV).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Sizes mirroring PostgreSQL's bufpage.h.
const (
	HeaderSize = 24 // pd_lsn .. pd_prune_xid
	ItemIDSize = 4  // one line pointer

	// DefaultSize is PostgreSQL's default BLCKSZ. Table IV repeats the
	// HNSW size experiment at 4 KiB.
	DefaultSize = 8192
	MinSize     = 512
	MaxSize     = 65536
)

// Header field offsets.
const (
	offLSN      = 0  // 8 bytes
	offFlags    = 8  // 2 bytes: checksum slot, not yet written
	offLower    = 12 // 2 bytes: end of line-pointer array
	offUpper    = 14 // 2 bytes: start of tuple space
	offSpecial  = 16 // 2 bytes: start of special space
	offPageSize = 18 // 2 bytes: page size (0 encodes 65536)
	offNextFree = 20 // 4 bytes: free-list hint (pd_prune_xid slot)
)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadOffset   = errors.New("page: item offset out of range")
	ErrDeadItem    = errors.New("page: item is dead")
	ErrUninitPage  = errors.New("page: page is not initialized")
	ErrItemTooBig  = errors.New("page: item exceeds page capacity")
	ErrCorruptPage = errors.New("page: corrupt header")
)

// Page is one disk block. Offsets into the line-pointer array are
// 1-based, matching PostgreSQL's OffsetNumber convention.
type Page []byte

// Init formats p as an empty page with the given special-space size.
func Init(p Page, specialSize int) {
	if len(p) < MinSize || len(p) > MaxSize {
		panic(fmt.Sprintf("page: invalid page size %d", len(p)))
	}
	for i := range p {
		p[i] = 0
	}
	special := len(p) - specialSize
	binary.LittleEndian.PutUint16(p[offLower:], HeaderSize)
	binary.LittleEndian.PutUint16(p[offUpper:], uint16(special))
	binary.LittleEndian.PutUint16(p[offSpecial:], uint16(special))
	binary.LittleEndian.PutUint16(p[offPageSize:], uint16(len(p)%MaxSize))
}

// IsInit reports whether the page has been formatted (a zero page has
// lower == 0).
func (p Page) IsInit() bool { return p.lower() != 0 }

func (p Page) lower() uint16   { return binary.LittleEndian.Uint16(p[offLower:]) }
func (p Page) upper() uint16   { return binary.LittleEndian.Uint16(p[offUpper:]) }
func (p Page) special() uint16 { return binary.LittleEndian.Uint16(p[offSpecial:]) }

// LSN returns the page's log sequence number.
func (p Page) LSN() uint64 { return binary.LittleEndian.Uint64(p[offLSN:]) }

// SetLSN stamps the page with an LSN; the buffer manager enforces
// WAL-before-data using it.
//
//vetvec:test-probe only TestWALBeforeData stamps a page until heap writes carry their WAL LSN
func (p Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p[offLSN:], lsn) }

// NumItems returns the number of line pointers (live or dead).
func (p Page) NumItems() uint16 {
	if !p.IsInit() {
		return 0
	}
	return (p.lower() - HeaderSize) / ItemIDSize
}

// FreeSpace returns the bytes available for one more item plus its line
// pointer.
func (p Page) FreeSpace() int {
	if !p.IsInit() {
		return 0
	}
	free := int(p.upper()) - int(p.lower()) - ItemIDSize
	if free < 0 {
		return 0
	}
	return free
}

// Special returns the special space slice.
func (p Page) Special() []byte { return p[p.special():] }

// itemID packs (offset 15 bits | dead flag 1 bit | length 16 bits).
func (p Page) itemID(i uint16) (off uint16, length uint16, dead bool) {
	base := HeaderSize + int(i)*ItemIDSize
	word := binary.LittleEndian.Uint32(p[base:])
	off = uint16(word & 0x7FFF)
	dead = word&0x8000 != 0
	length = uint16(word >> 16)
	return
}

func (p Page) setItemID(i uint16, off, length uint16, dead bool) {
	base := HeaderSize + int(i)*ItemIDSize
	word := uint32(off&0x7FFF) | uint32(length)<<16
	if dead {
		word |= 0x8000
	}
	binary.LittleEndian.PutUint32(p[base:], word)
}

// MaxAlign is PostgreSQL's MAXIMUM_ALIGNOF: every item start is aligned
// down to an 8-byte boundary, so fixed-layout index entries can be
// reinterpreted in place (e.g., their vector payload viewed as []float32).
const MaxAlign = 8

// AddItem appends data as a new item and returns its 1-based offset
// number. The data is copied into the page; the item start is MAXALIGNed
// like PostgreSQL tuples.
func (p Page) AddItem(data []byte) (uint16, error) {
	if !p.IsInit() {
		return 0, ErrUninitPage
	}
	if len(data)+MaxAlign > len(p)-HeaderSize-ItemIDSize {
		return 0, ErrItemTooBig
	}
	if p.FreeSpace() < len(data)+MaxAlign {
		return 0, ErrPageFull
	}
	n := p.NumItems()
	newUpper := (p.upper() - uint16(len(data))) &^ (MaxAlign - 1)
	copy(p[newUpper:], data)
	p.setItemID(n, newUpper, uint16(len(data)), false)
	binary.LittleEndian.PutUint16(p[offLower:], p.lower()+ItemIDSize)
	binary.LittleEndian.PutUint16(p[offUpper:], newUpper)
	return n + 1, nil
}

// Item returns the payload of the item at the 1-based offset number. The
// returned slice aliases the page; callers must copy if they hold it past
// the buffer pin.
func (p Page) Item(offnum uint16) ([]byte, error) {
	if !p.IsInit() {
		return nil, ErrUninitPage
	}
	if offnum == 0 || offnum > p.NumItems() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadOffset, offnum, p.NumItems())
	}
	off, length, dead := p.itemID(offnum - 1)
	if dead {
		return nil, ErrDeadItem
	}
	if int(off)+int(length) > len(p) {
		return nil, ErrCorruptPage
	}
	return p[off : off+length], nil
}

// DeleteItem marks the item dead. Space is not reclaimed (PostgreSQL
// defers that to VACUUM; we never need it for the paper's workloads).
func (p Page) DeleteItem(offnum uint16) error {
	if offnum == 0 || offnum > p.NumItems() {
		return fmt.Errorf("%w: %d of %d", ErrBadOffset, offnum, p.NumItems())
	}
	off, length, _ := p.itemID(offnum - 1)
	p.setItemID(offnum-1, off, length, true)
	return nil
}

// ItemIsDead reports whether the item at the 1-based offset number has
// been deleted. Out-of-range offsets report false.
func (p Page) ItemIsDead(offnum uint16) bool {
	if !p.IsInit() || offnum == 0 || offnum > p.NumItems() {
		return false
	}
	_, _, dead := p.itemID(offnum - 1)
	return dead
}

// DeadSpace returns the payload bytes still held by the dead item at the
// 1-based offset number — zero for live items and for dead items whose
// space Compact already reclaimed.
func (p Page) DeadSpace(offnum uint16) int {
	if !p.IsInit() || offnum == 0 || offnum > p.NumItems() {
		return 0
	}
	_, length, dead := p.itemID(offnum - 1)
	if !dead {
		return 0
	}
	return int(length)
}

// Compact rewrites the tuple data area dropping dead items' payloads, the
// page half of VACUUM. Live payloads move toward the page tail (their
// offset numbers are preserved — TIDs stay stable), dead line pointers
// stay dead with a zero-length payload, and the reclaimed bytes join the
// page's free space. Line pointers are never removed: reusing a dead
// slot would let a stale index TID resolve to an unrelated new tuple.
// Returns the number of bytes freed.
func (p Page) Compact() int {
	if !p.IsInit() {
		return 0
	}
	n := p.NumItems()
	oldUpper := p.upper()
	// Copy live payloads out, then repack from the special space downward
	// in the same MAXALIGNed style AddItem uses.
	type live struct {
		off  uint16
		data []byte
	}
	lives := make([]live, 0, n)
	for i := uint16(0); i < n; i++ {
		off, length, dead := p.itemID(i)
		if dead {
			p.setItemID(i, 0, 0, true)
			continue
		}
		lives = append(lives, live{off: i, data: append([]byte(nil), p[off:off+length]...)})
	}
	upper := p.special()
	for _, lv := range lives {
		upper = (upper - uint16(len(lv.data))) &^ (MaxAlign - 1)
		copy(p[upper:], lv.data)
		p.setItemID(lv.off, upper, uint16(len(lv.data)), false)
	}
	binary.LittleEndian.PutUint16(p[offUpper:], upper)
	return int(upper) - int(oldUpper)
}

// OverwriteItem replaces the payload of an existing item in place. The new
// payload must fit the item's current allocation; index AMs use it for
// fixed-size entries (e.g., neighbor slots).
func (p Page) OverwriteItem(offnum uint16, data []byte) error {
	if offnum == 0 || offnum > p.NumItems() {
		return fmt.Errorf("%w: %d of %d", ErrBadOffset, offnum, p.NumItems())
	}
	off, length, dead := p.itemID(offnum - 1)
	if dead {
		return ErrDeadItem
	}
	if len(data) > int(length) {
		return fmt.Errorf("page: overwrite of %d bytes into %d-byte item", len(data), length)
	}
	copy(p[off:off+uint16(len(data))], data)
	if len(data) < int(length) {
		p.setItemID(offnum-1, off, uint16(len(data)), false)
	}
	return nil
}
