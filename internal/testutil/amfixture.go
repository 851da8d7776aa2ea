package testutil

import (
	"encoding/binary"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/storage"
	"vecstudy/internal/vec"
)

// AMFixtureDim is the dimensionality of every AMFixture vector.
const AMFixtureDim = 32

const amFixtureTableRel = buffer.RelID(1)

// AMFixture is a heap table (id int, vec float[]) of seeded Gaussian
// vectors in a private buffer pool — the substrate the access-method
// suites build their indexes on directly, without a db.DB.
type AMFixture struct {
	Pool     *buffer.Pool
	PageSize int
	Table    *heap.Table
	Vecs     [][]float32
	TIDs     []heap.TID
	Row      map[heap.TID]int // TID -> insertion ordinal
	nextRel  buffer.RelID
}

func gaussian(rng *rand.Rand) []float32 {
	v := make([]float32, AMFixtureDim)
	for j := range v {
		v[j] = float32(rng.NormFloat64()) * 10
	}
	return v
}

// Queries returns n seeded vectors from the fixture's distribution.
func Queries(seed int64, n int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = gaussian(rng)
	}
	return out
}

// NewAMFixture loads n rows into a pool of frames pages of pageSize.
func NewAMFixture(t testing.TB, n, pageSize, frames int) *AMFixture {
	t.Helper()
	pool, err := buffer.NewPool(pageSize, frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Register(amFixtureTableRel, storage.NewMemStore(pageSize)); err != nil {
		t.Fatal(err)
	}
	tbl, err := heap.New(pool, amFixtureTableRel, heap.Schema{Cols: []heap.Column{
		{Name: "id", Type: heap.Int4},
		{Name: "vec", Type: heap.Float4Array},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fx := &AMFixture{Pool: pool, PageSize: pageSize, Table: tbl, Row: make(map[heap.TID]int), nextRel: amFixtureTableRel + 1}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		fx.Insert(t, gaussian(rng))
	}
	return fx
}

// Insert adds one heap row (not the index entry) and returns its TID.
func (fx *AMFixture) Insert(t testing.TB, v []float32) heap.TID {
	t.Helper()
	tid, err := fx.Table.Insert([]any{int32(len(fx.Vecs)), v})
	if err != nil {
		t.Fatal(err)
	}
	fx.Row[tid] = len(fx.Vecs)
	fx.Vecs = append(fx.Vecs, v)
	fx.TIDs = append(fx.TIDs, tid)
	return tid
}

// Ctx registers a fresh index relation and returns its build context.
func (fx *AMFixture) Ctx(t testing.TB, opts map[string]string) *am.BuildContext {
	t.Helper()
	rel := fx.nextRel
	fx.nextRel++
	if err := fx.Pool.Register(rel, storage.NewMemStore(fx.PageSize)); err != nil {
		t.Fatal(err)
	}
	return &am.BuildContext{
		Pool: fx.Pool, Rel: rel, Table: fx.Table, VecCol: 1, Dim: AMFixtureDim, Opts: opts,
	}
}

// Build builds the registered access method amName WITH opts.
func (fx *AMFixture) Build(t testing.TB, amName string, opts map[string]string) am.Index {
	t.Helper()
	build, err := am.Lookup(amName)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := build(fx.Ctx(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// PredMod keeps rows whose id column (the insertion ordinal) is divisible
// by m. Like the SQL executor's predicate it resolves the TID through the
// heap — a pin in the pool the index scan is itself pinning pages of.
func (fx *AMFixture) PredMod(m int) am.Predicate {
	return func(tid heap.TID) (bool, error) {
		keep := false
		ok, err := fx.Table.GetVisible(tid, func(tup []byte) error {
			vals, err := fx.Table.Schema().Decode(tup)
			if err == nil {
				keep = int(vals[0].(int32))%m == 0
			}
			return err
		})
		return ok && keep, err
	}
}

// BruteTopK is the oracle: exact top-k over the rows live admits (all of
// them when nil), ref kernel, ties broken by insertion order.
func (fx *AMFixture) BruteTopK(q []float32, k int, live func(row int) bool) []heap.TID {
	ref := vec.Ref()
	type cand struct {
		row int
		d   float32
	}
	var cands []cand
	for i, v := range fx.Vecs {
		if live == nil || live(i) {
			cands = append(cands, cand{i, ref.L2Sqr(q, v)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].row < cands[b].row
	})
	out := make([]heap.TID, 0, k)
	for i := 0; i < k && i < len(cands); i++ {
		out = append(out, fx.TIDs[cands[i].row])
	}
	return out
}

// ScanOpts parses a knob map into typed scan options through the one
// parser, starting from the served defaults and failing the test on a
// name or value SET would reject.
func ScanOpts(t testing.TB, knobs map[string]string) *am.ScanOpts {
	t.Helper()
	opts := am.DefaultScanOpts()
	for name, value := range knobs {
		if known, err := opts.Set(name, value); err != nil || !known {
			t.Fatalf("scan knob %s=%s: known=%v, %v", name, value, known, err)
		}
	}
	return opts
}

// MustScan runs ix.Scan, failing the test on an error or on anything but
// one result list per query.
func MustScan(t testing.TB, ix am.Index, qs []am.Query, opts *am.ScanOpts) [][]am.Result {
	t.Helper()
	out, err := ix.Scan(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(qs) {
		t.Fatalf("%d result lists for %d queries", len(out), len(qs))
	}
	return out
}

// DigestResults folds one result list — its length, then every (TID,
// Float32bits(Dist)) — into h: the byte-identity digest of the golden
// tests.
func DigestResults(h hash.Hash64, rows []am.Result) {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(len(rows)))
	h.Write(b[:4])
	for _, r := range rows {
		binary.LittleEndian.PutUint32(b[0:], r.TID.Blk)
		binary.LittleEndian.PutUint16(b[4:], r.TID.Off)
		binary.LittleEndian.PutUint32(b[6:], math.Float32bits(r.Dist))
		h.Write(b[:10])
	}
}

// SameAMResults reports whether two result lists agree bit for bit.
func SameAMResults(a, b []am.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TID != b[i].TID || math.Float32bits(a[i].Dist) != math.Float32bits(b[i].Dist) {
			return false
		}
	}
	return true
}
