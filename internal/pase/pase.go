// Package pase holds the pieces shared by the PASE-style index access
// methods (ivfflat, ivfpq, hnsw): WITH-option parsing, the data-page
// chain convention (next-block pointer in the page special space), and
// the aligned float view used to read vector payloads in place, the way
// PASE casts C structs over PostgreSQL page bytes.
//
// The sub-packages implement the same algorithms as the specialized
// engine (internal/faiss/...), but every vector and graph edge lives in
// slotted pages behind the shared buffer pool. The deliberate
// inefficiencies the paper measures — naive distance loops (RC#1), page
// indirection on every access (RC#2), lock-guarded parallel heaps
// (RC#3), page-per-adjacency-list layout (RC#4), size-n top-k heaps
// (RC#6), per-list PQ tables (RC#7) — are all faithfully reproduced and
// individually measurable.
package pase

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"vecstudy/internal/pg/page"
)

// InvalidBlk is the nil block-pointer value in page chains.
const InvalidBlk = ^uint32(0)

// ChainSpecialSize is the special-space footprint of chained data pages:
// a next-block pointer padded to MAXALIGN.
const ChainSpecialSize = 8

// SetNextBlk stores the chain pointer in a page's special space.
func SetNextBlk(p page.Page, blk uint32) {
	binary.LittleEndian.PutUint32(p.Special(), blk)
}

// NextBlk reads the chain pointer from a page's special space.
func NextBlk(p page.Page) uint32 {
	return binary.LittleEndian.Uint32(p.Special())
}

// Float32View reinterprets b as a []float32 without copying. b must be
// 4-byte aligned and a multiple of 4 long — guaranteed for vector
// payloads placed at MAXALIGNed offsets inside page items. It falls back
// to a copy if the alignment contract is ever violated.
func Float32View(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 || len(b)%4 != 0 {
		out := make([]float32, len(b)/4)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// PutFloat32s serializes vs into b (little-endian), returning the bytes
// consumed.
func PutFloat32s(b []byte, vs []float32) int {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return 4 * len(vs)
}

// OptInt parses an integer WITH-option, returning def when absent.
func OptInt(opts map[string]string, key string, def int) (int, error) {
	s, ok := opts[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("pase: option %s=%q: %w", key, s, err)
	}
	return v, nil
}

// OptFloat parses a float WITH-option, returning def when absent.
func OptFloat(opts map[string]string, key string, def float64) (float64, error) {
	s, ok := opts[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pase: option %s=%q: %w", key, s, err)
	}
	return v, nil
}

// OptBool parses a boolean WITH-option ("true"/"false"/"1"/"0"),
// returning def when absent.
func OptBool(opts map[string]string, key string, def bool) (bool, error) {
	s, ok := opts[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("pase: option %s=%q: %w", key, s, err)
	}
	return v, nil
}
