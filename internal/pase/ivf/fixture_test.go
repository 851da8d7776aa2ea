package ivf_test

import (
	"math/rand"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/storage"

	_ "vecstudy/internal/pase/all"
)

const (
	fxDim    = 32
	tableRel = buffer.RelID(1)
)

// amOpts are the WITH options each access method is built with; clusters
// = 32 keeps the default nprobe (20) a partial probe.
var amOpts = map[string]map[string]string{
	"ivfflat":     {"clusters": "32", "sample_ratio": "1", "seed": "1"},
	"ivfpq":       {"clusters": "32", "sample_ratio": "1", "seed": "1", "m": "16", "ksub": "256"},
	"ivfsq8":      {"clusters": "32", "sample_ratio": "1", "seed": "1"},
	"pgv_ivfflat": {"clusters": "32", "sample_ratio": "1", "seed": "1"},
}

// fixture is a heap table of seeded Gaussian vectors in a private pool.
type fixture struct {
	pool     *buffer.Pool
	pageSize int
	tbl      *heap.Table
	vecs     [][]float32
	tids     []heap.TID
	row      map[heap.TID]int // TID -> insertion ordinal
	nextRel  buffer.RelID
}

func gaussian(rng *rand.Rand) []float32 {
	v := make([]float32, fxDim)
	for j := range v {
		v[j] = float32(rng.NormFloat64()) * 10
	}
	return v
}

func newFixture(t testing.TB, n, pageSize, frames int) *fixture {
	t.Helper()
	pool, err := buffer.NewPool(pageSize, frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Register(tableRel, storage.NewMemStore(pageSize)); err != nil {
		t.Fatal(err)
	}
	tbl, err := heap.New(pool, tableRel, heap.Schema{Cols: []heap.Column{
		{Name: "id", Type: heap.Int4},
		{Name: "vec", Type: heap.Float4Array},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{pool: pool, pageSize: pageSize, tbl: tbl, row: make(map[heap.TID]int), nextRel: tableRel + 1}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		fx.insert(t, gaussian(rng))
	}
	return fx
}

// insert adds one heap row (not the index entry) and returns its TID.
func (fx *fixture) insert(t testing.TB, v []float32) heap.TID {
	t.Helper()
	tid, err := fx.tbl.Insert([]any{int32(len(fx.vecs)), v})
	if err != nil {
		t.Fatal(err)
	}
	fx.row[tid] = len(fx.vecs)
	fx.vecs = append(fx.vecs, v)
	fx.tids = append(fx.tids, tid)
	return tid
}

// ctx registers a fresh index relation and returns its build context.
func (fx *fixture) ctx(t testing.TB, amName string) *am.BuildContext {
	t.Helper()
	rel := fx.nextRel
	fx.nextRel++
	if err := fx.pool.Register(rel, storage.NewMemStore(fx.pageSize)); err != nil {
		t.Fatal(err)
	}
	return &am.BuildContext{
		Pool: fx.pool, Rel: rel, Table: fx.tbl, VecCol: 1, Dim: fxDim, Opts: amOpts[amName],
	}
}

func (fx *fixture) build(t testing.TB, amName string) am.Index {
	t.Helper()
	build, err := am.Lookup(amName)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := build(fx.ctx(t, amName))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// predMod keeps rows whose id column (the insertion ordinal) is divisible
// by m. Like the SQL executor's predicate it resolves the TID through the
// heap — a pin in the pool the index scan is itself pinning pages of.
func (fx *fixture) predMod(m int) am.Predicate {
	return func(tid heap.TID) (bool, error) {
		keep := false
		ok, err := fx.tbl.GetVisible(tid, func(tup []byte) error {
			vals, err := fx.tbl.Schema().Decode(tup)
			if err == nil {
				keep = int(vals[0].(int32))%m == 0
			}
			return err
		})
		return ok && keep, err
	}
}

func queries(seed int64, n int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = gaussian(rng)
	}
	return out
}
