package ivf_test

import (
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"

	_ "vecstudy/internal/pase/all"
)

const fxDim = testutil.AMFixtureDim

// amOpts are the WITH options each access method is built with; clusters
// = 32 keeps the default nprobe (20) a partial probe.
var amOpts = map[string]map[string]string{
	"ivfflat":     {"clusters": "32", "sample_ratio": "1", "seed": "1"},
	"ivfpq":       {"clusters": "32", "sample_ratio": "1", "seed": "1", "m": "16", "ksub": "256"},
	"ivfsq8":      {"clusters": "32", "sample_ratio": "1", "seed": "1"},
	"pgv_ivfflat": {"clusters": "32", "sample_ratio": "1", "seed": "1"},
}

// fixture is the shared access-method fixture, built WITH amOpts.
type fixture struct{ *testutil.AMFixture }

func newFixture(t testing.TB, n, pageSize, frames int) *fixture {
	t.Helper()
	return &fixture{testutil.NewAMFixture(t, n, pageSize, frames)}
}

// ctx registers a fresh index relation and returns its build context.
func (fx *fixture) ctx(t testing.TB, amName string) *am.BuildContext {
	t.Helper()
	return fx.Ctx(t, amOpts[amName])
}

func (fx *fixture) build(t testing.TB, amName string) am.Index {
	t.Helper()
	return fx.Build(t, amName, amOpts[amName])
}

var (
	queries  = testutil.Queries
	scanOpts = testutil.ScanOpts
)

// scanOne answers a single query.
func scanOne(ix am.Index, q am.Query, opts *am.ScanOpts) ([]am.Result, error) {
	out, err := ix.Scan([]am.Query{q}, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// batchOf zips vectors, ks and (possibly nil) predicates into queries.
func batchOf(qs [][]float32, ks []int, preds []am.Predicate) []am.Query {
	out := make([]am.Query, len(qs))
	for i, q := range qs {
		out[i] = am.Query{Vec: q, K: ks[i]}
		if preds != nil {
			out[i].Pred = preds[i]
		}
	}
	return out
}
