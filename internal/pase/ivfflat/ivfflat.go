// Package ivfflat implements the PASE-style IVF_FLAT index access method
// on the PostgreSQL substrate: the internal/pase/ivf chassis (meta page,
// centroid pages, per-bucket chains of data pages, and every mechanism
// over them) with the flat codec — each data entry stores the raw
// float32 vector after its packed heap TID, and payload distances are
// exact.
package ivfflat

import (
	"slices"

	"vecstudy/internal/pase"
	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("ivfflat", Build)
}

// Index is a built PASE IVF_FLAT index.
type Index struct{ *ivf.Index }

var _ am.Index = (*Index)(nil)

// Build trains centroids over the table's vectors and bulk-loads every
// row into its bucket. Options: clusters (c), sample_ratio (sr),
// distance_type (0=L2), seed.
func Build(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Build(ctx, &Codec{})
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// Codec is the flat ivf.Codec: the payload is the vector itself.
type Codec struct{ dim int }

// Name implements ivf.Codec.
func (*Codec) Name() string { return "ivfflat" }

// Train implements ivf.Codec; there is nothing to fit.
func (c *Codec) Train(_ map[string]string, _ []float32, dim int, _ []float32) error {
	c.dim = dim
	return nil
}

// Marshal implements ivf.Codec; the flat codec has no persistent state.
func (*Codec) Marshal() [][]byte { return nil }

// Unmarshal implements ivf.Codec.
func (c *Codec) Unmarshal(dim int, _ [][]byte) error {
	c.dim = dim
	return nil
}

// PayloadSize implements ivf.Codec.
func (c *Codec) PayloadSize() int { return c.dim * 4 }

// Encode implements ivf.Codec.
func (*Codec) Encode(x, _ []float32, payload []byte) { pase.PutFloat32s(payload, x) }

// Rerank implements ivf.Codec: flat distances are final.
func (*Codec) Rerank() bool { return false }

// NewScorer implements ivf.Codec.
func (c *Codec) NewScorer(kern vec.Kernel, queries []am.Query) ivf.Scorer {
	return &scorer{kern: kern, dim: c.dim, queries: queries}
}

// scorer scores a segment with one kernel L2SqrNTRows call: the entries
// are the A rows — zero-copy views into the pinned pages — and the
// subscribing queries the B rows. The transposition is deliberate: A
// rows drive the kernel's unroll, and a bucket always has many tuples
// even when only one query subscribes, so the independent accumulator
// chains (the ILP that makes RC#1 pay on a single core) engage for every
// bucket. Each (tuple, query) chain computes Σ(t_p−q_p)², bitwise equal
// to the solo Σ(q_p−t_p)²: IEEE subtraction is sign-symmetric and
// x·x == (−x)·(−x), and every kernel's L2SqrNTRows is bit-equal, pair by
// pair, to its L2Sqr (the kernelparity contract).
type scorer struct {
	kern    vec.Kernel
	dim     int
	queries []am.Query
	rows    [][]float32
	qf      []float32 // the subscriber queries gathered row-major
}

// Bucket implements ivf.Scorer.
func (*scorer) Bucket([]float32, []int) {}

// Score implements ivf.Scorer.
func (s *scorer) Score(entries [][]byte, qs []int, _ bool, out []float32) {
	s.rows = slices.Grow(s.rows[:0], len(entries))
	for _, e := range entries {
		s.rows = append(s.rows, pase.Float32View(e[ivf.EntryHeaderSize:]))
	}
	qf := s.queries[qs[0]].Vec
	if len(qs) > 1 {
		qf = s.qf[:0]
		for _, qi := range qs {
			qf = append(qf, s.queries[qi].Vec...)
		}
		s.qf = qf
	}
	s.kern.L2SqrNTRows(s.rows, s.dim, qf, len(qs), out)
}
