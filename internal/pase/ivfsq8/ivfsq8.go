// Package ivfsq8 implements a PASE-style IVF index with SQ8 scalar
// quantization on the PostgreSQL substrate: the internal/pase/ivf
// chassis with the SQ8 codec — each data entry stores the vector as d
// uint8 codes on a per-dimension [min, max] grid trained at build time
// (persisted on the aux pages), so data pages hold roughly 4× more
// tuples per page than ivfflat's. Search scores codes with the kernel's
// asymmetric uint8-vs-float32 distance — plain scans in the decomposed
// form (a uint8 dot product against stored code norms, one page per
// kernel call), predicate-gated scans per surviving item — keeps k·β
// candidates (SET sq8_rerank), and re-ranks them against the
// full-precision heap tuples before returning k — the classic SQ8 +
// refinement recipe, here paying PostgreSQL's tuple re-fetch cost for
// the refinement step.
package ivfsq8

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"vecstudy/internal/pase"
	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("ivfsq8", Build)
}

// Index is a built IVF_SQ8 index.
type Index struct{ *ivf.Index }

var _ am.Index = (*Index)(nil)

// Build trains centroids and the SQ8 grid over the table's vectors and
// bulk-loads every row as a code. Options: clusters (c), sample_ratio
// (sr), seed — the same knobs as ivfflat.
func Build(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Build(ctx, &Codec{})
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// payload layout: the entry's code norm Σ(Step_i·c_i)² as a
// little-endian float32, then the d code bytes. The stored norm is the
// code-side term of the decomposed asymmetric distance
// (vec.SQ8.DecomposeQuery): computing it once at encode time lets plain
// scans score each candidate with a single uint8 dot product instead of
// the full subtract-square form. It is derived purely from the code and
// the trained grid with fixed scalar arithmetic (vec.SQ8.CodeNorm), so
// it is kernel-independent like the rest of the on-disk layout.
const normSize = 4

// codeOff is where the code bytes start within a whole data entry.
const codeOff = ivf.EntryHeaderSize + normSize

// statsChunkSize bounds one aux item: the min/step arrays are split into
// page-item-sized chunks so any dimensionality fits the page size.
const statsChunkSize = 4096

// Codec is the SQ8 ivf.Codec.
type Codec struct{ sq *vec.SQ8 }

// Name implements ivf.Codec.
func (*Codec) Name() string { return "ivfsq8" }

// Train implements ivf.Codec: the grid is the per-dimension [min, max]
// of every indexed vector. It is never retrained — later out-of-range
// values clamp to the edge cells, the standard SQ8 behaviour for
// drifting data.
func (c *Codec) Train(_ map[string]string, data []float32, dim int, _ []float32) error {
	trainer := vec.NewSQ8Trainer(dim)
	for i := 0; i+dim <= len(data); i += dim {
		trainer.Observe(data[i : i+dim])
	}
	c.sq = trainer.Finish()
	return nil
}

// Marshal implements ivf.Codec: the grid is serialized as one byte
// stream (d mins then d steps, little-endian float32) split into page
// items.
func (c *Codec) Marshal() [][]byte {
	d := c.sq.Dim()
	raw := make([]byte, 8*d)
	pase.PutFloat32s(raw, c.sq.Min)
	pase.PutFloat32s(raw[4*d:], c.sq.Step)
	var items [][]byte
	for off := 0; off < len(raw); off += statsChunkSize {
		items = append(items, raw[off:min(off+statsChunkSize, len(raw))])
	}
	return items
}

// Unmarshal implements ivf.Codec.
func (c *Codec) Unmarshal(dim int, items [][]byte) error {
	var raw []byte
	for _, item := range items {
		raw = append(raw, item...)
	}
	if len(raw) != 8*dim {
		return fmt.Errorf("pase/ivfsq8: stats pages hold %d bytes, want %d", len(raw), 8*dim)
	}
	grid := make([]float32, 2*dim)
	copy(grid, pase.Float32View(raw))
	c.sq = &vec.SQ8{Min: grid[:dim:dim], Step: grid[dim:]}
	return nil
}

// PayloadSize implements ivf.Codec.
func (c *Codec) PayloadSize() int { return normSize + c.sq.Dim() }

// Encode implements ivf.Codec.
func (c *Codec) Encode(x, _ []float32, payload []byte) {
	code := payload[normSize:]
	c.sq.Encode(x, code)
	binary.LittleEndian.PutUint32(payload, math.Float32bits(c.sq.CodeNorm(code)))
}

// Rerank implements ivf.Codec: the k·β best candidates by code distance
// are re-scored against the heap vectors (am.ScanOpts.Rerank, SET
// sq8_rerank).
func (*Codec) Rerank() bool { return true }

// NewScorer implements ivf.Codec. The query-side decomposition is the
// same sequential transform whatever the batch, so each query's w and
// ‖u‖² are bit-identical between solo and multi-query scans.
func (c *Codec) NewScorer(kern vec.Kernel, queries []am.Query) ivf.Scorer {
	s := &scorer{
		kern: kern, sq: c.sq, queries: queries,
		w: make([][]float32, len(queries)), unorm: make([]float32, len(queries)),
	}
	for i, q := range queries {
		s.w[i] = make([]float32, len(q.Vec))
		s.unorm[i] = c.sq.DecomposeQuery(q.Vec, s.w[i])
	}
	return s
}

type scorer struct {
	kern    vec.Kernel
	sq      *vec.SQ8
	queries []am.Query
	w       [][]float32 // per query: its decomposition...
	unorm   []float32   // ...and its ‖u‖²
	codes   [][]byte
	col     []float32
}

// Bucket implements ivf.Scorer.
func (*scorer) Bucket([]float32, []int) {}

// Score implements ivf.Scorer. A dense call scores the whole page per
// kernel call in the decomposed form: dist_i = ‖u‖² − 2·(w·c_i) + norm_i,
// with each entry's code norm read off the page where Encode stored it.
// The per-candidate kernel work is then a bare uint8 dot product —
// roughly a third of the direct subtract-square form. The reassembled
// distance rounds differently from the direct form, which only moves
// candidates at the k·β selection boundary; the full-precision re-rank
// makes the returned distances exact either way. A sparse call carries
// only predicate survivors — too few for the decomposition to pay — and
// scores them in the direct form.
func (s *scorer) Score(entries [][]byte, qs []int, sparse bool, out []float32) {
	s.codes = slices.Grow(s.codes[:0], len(entries))
	for _, e := range entries {
		s.codes = append(s.codes, e[codeOff:])
	}
	n := len(qs)
	col := out
	if n > 1 {
		if cap(s.col) < len(entries) {
			s.col = make([]float32, len(entries))
		}
		col = s.col[:len(entries)]
	}
	for si, qi := range qs {
		if sparse {
			s.kern.L2SqrSQ8Batch(s.queries[qi].Vec, s.codes, s.sq, col)
			if n > 1 {
				for t := range entries {
					out[t*n+si] = col[t]
				}
			}
			continue
		}
		s.kern.DotSQ8Batch(s.w[qi], s.codes, col)
		unorm := s.unorm[qi]
		for t, e := range entries {
			out[t*n+si] = unorm - 2*col[t] + math.Float32frombits(binary.LittleEndian.Uint32(e[ivf.EntryHeaderSize:]))
		}
	}
}
