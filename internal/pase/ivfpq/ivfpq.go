// Package ivfpq implements the PASE-style IVF_PQ index access method on
// the PostgreSQL substrate: the internal/pase/ivf chassis with the PQ
// codec — PQ codebooks on the aux pages, and data entries that pack a
// heap TID with the M-byte PQ code of the vector's residual against its
// bucket centroid.
//
// The paper's RC#7 lives here: PASE computes the query-to-codeword
// distance table from scratch for every probed bucket (a m×c_pq×(d/m)
// scalar-loop computation), while the specialized engine assembles it
// from terms cached at train time. RC#1/RC#2/RC#3/RC#6 are the
// chassis's.
package ivfpq

import (
	"fmt"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/pase"
	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pq"
	"vecstudy/internal/vec"
)

func init() {
	am.Register("ivfpq", Build)
}

// Index is a built PASE IVF_PQ index.
type Index struct{ *ivf.Index }

var _ am.Index = (*Index)(nil)

// Build trains the coarse and product quantizers over the table and
// bulk-loads the codes. Options: clusters, sample_ratio, m, ksub, seed.
func Build(ctx *am.BuildContext) (am.Index, error) {
	ix, err := ivf.Build(ctx, &Codec{})
	if err != nil {
		return nil, err
	}
	return &Index{ix}, nil
}

// Codec is the PQ ivf.Codec: the payload is the M-byte code of the
// vector's residual against its bucket centroid.
type Codec struct {
	quant *pq.Quantizer
	resid []float32 // Encode's residual buffer (the chassis serializes Encode)
}

// Name implements ivf.Codec.
func (*Codec) Name() string { return "ivfpq" }

// refKern pins the residuals the codebooks are trained on to the ref
// kernel, like every other layout-affecting assignment.
var refKern = vec.Ref()

// Train implements ivf.Codec: PQ trained on the residuals of a training
// subset against their nearest coarse centroid, naive kernels.
func (c *Codec) Train(opts map[string]string, data []float32, d int, centroids []float32) error {
	m, err := pase.OptInt(opts, "m", 16)
	if err != nil {
		return err
	}
	ksub, err := pase.OptInt(opts, "ksub", 256)
	if err != nil {
		return err
	}
	seed, err := pase.OptInt(opts, "seed", 0)
	if err != nil {
		return err
	}
	n, nlist := len(data)/d, len(centroids)/d
	if m <= 0 || d%m != 0 {
		return fmt.Errorf("pase/ivfpq: m=%d must divide dim=%d", m, d)
	}
	if n < ksub {
		return fmt.Errorf("pase/ivfpq: %d rows too few for ksub=%d", n, ksub)
	}
	tn := min(n, 64*ksub)
	resid := make([]float32, tn*d)
	for i := 0; i < tn; i++ {
		row := data[i*d : (i+1)*d]
		best, bestD := 0, refKern.L2Sqr(row, centroids[:d])
		for cid := 1; cid < nlist; cid++ {
			if dd := refKern.L2Sqr(row, centroids[cid*d:(cid+1)*d]); dd < bestD {
				best, bestD = cid, dd
			}
		}
		residual(row, centroids[best*d:(best+1)*d], resid[i*d:(i+1)*d])
	}
	c.quant, err = pq.Train(resid, tn, d, pq.Config{
		M: m, KSub: ksub, Seed: int64(seed) + 1,
		UseGemm: false, Threads: 1, Flavor: kmeans.FlavorPASE,
	})
	return err
}

func residual(x, centroid, dst []float32) {
	for j := range dst {
		dst[j] = x[j] - centroid[j]
	}
}

// Marshal implements ivf.Codec: the codewords in (subspace, codeword)
// order, one page item of dsub floats each.
func (c *Codec) Marshal() [][]byte {
	q := c.quant
	raw := make([]byte, 4*len(q.Codebooks))
	pase.PutFloat32s(raw, q.Codebooks)
	items := make([][]byte, q.M*q.KSub)
	for i := range items {
		items[i] = raw[i*q.DSub*4 : (i+1)*q.DSub*4]
	}
	return items
}

// Unmarshal implements ivf.Codec. M and KSub follow from the item shape:
// each item is one codeword of dsub floats, and there are M·KSub of them.
func (c *Codec) Unmarshal(dim int, items [][]byte) error {
	if len(items) == 0 || len(items[0]) == 0 || dim%(len(items[0])/4) != 0 {
		return fmt.Errorf("pase/ivfpq: %d codebook items do not fit dim %d", len(items), dim)
	}
	dsub := len(items[0]) / 4
	m := dim / dsub
	q := &pq.Quantizer{D: dim, M: m, KSub: len(items) / m, DSub: dsub}
	for _, item := range items {
		q.Codebooks = append(q.Codebooks, pase.Float32View(item)...)
	}
	c.quant = q
	return nil
}

// PayloadSize implements ivf.Codec.
func (c *Codec) PayloadSize() int { return c.quant.M }

// Encode implements ivf.Codec.
func (c *Codec) Encode(x, centroid []float32, payload []byte) {
	if c.resid == nil {
		c.resid = make([]float32, len(x))
	}
	residual(x, centroid, c.resid)
	c.quant.Encode(c.resid, payload)
}

// Rerank implements ivf.Codec: PASE returns the ADC distances as they are.
func (*Codec) Rerank() bool { return false }

// NewScorer implements ivf.Codec.
func (c *Codec) NewScorer(_ vec.Kernel, queries []am.Query) ivf.Scorer {
	return &scorer{
		quant: c.quant, queries: queries, slot: make([]int, len(queries)),
		resid: make([]float32, c.quant.D),
	}
}

// scorer is asymmetric distance computation over per-(query, bucket)
// tables.
type scorer struct {
	quant   *pq.Quantizer
	queries []am.Query
	resid   []float32
	tabs    []float32 // one M×KSub table per subscriber of the current bucket
	slot    []int     // batch index -> its table's row in tabs
}

// Bucket implements ivf.Scorer: it rebuilds the query-to-codeword
// distance table of every subscriber from scratch (RC#7) — residual
// against the bucket's coarse centroid, then the naive sub-quantizer
// table. The table depends only on (query, bucket), so a multi-query
// probe pays exactly the solo arithmetic once per probing query.
func (s *scorer) Bucket(centroid []float32, qs []int) {
	size := s.quant.M * s.quant.KSub
	if need := len(qs) * size; cap(s.tabs) < need {
		s.tabs = make([]float32, need)
	}
	for row, qi := range qs {
		residual(s.queries[qi].Vec, centroid, s.resid)
		s.quant.DistanceTableNaive(s.resid, s.tabs[row*size:(row+1)*size])
		s.slot[qi] = row
	}
}

// Score implements ivf.Scorer.
func (s *scorer) Score(entries [][]byte, qs []int, _ bool, out []float32) {
	m, ksub := s.quant.M, s.quant.KSub
	for si, qi := range qs {
		tab := s.tabs[s.slot[qi]*m*ksub:]
		for t, e := range entries {
			code := e[ivf.EntryHeaderSize:]
			var dist float32
			for mm := 0; mm < m; mm++ {
				dist += tab[mm*ksub+int(code[mm])]
			}
			out[t*len(qs)+si] = dist
		}
	}
}
