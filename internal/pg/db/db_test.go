package db

import (
	"fmt"
	"testing"

	_ "vecstudy/internal/pase/all" // register the generalized AMs
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/testutil"
)

// loadSmall creates an in-memory database holding the shared test dataset
// in a (id int, vec float[]) table — the paper's schema.
func loadSmall(t *testing.T, cfg Config) *DB {
	t.Helper()
	ds := testutil.SmallDataset(t)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	schema := heap.Schema{Cols: []heap.Column{
		{Name: "id", Type: heap.Int4},
		{Name: "vec", Type: heap.Float4Array},
	}}
	tbl, err := d.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N(); i++ {
		if _, err := tbl.Insert([]any{int32(i), ds.Base.Row(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// searchIDs runs an index search and maps the TIDs back to the id column.
func searchIDs(t *testing.T, d *DB, idx am.Index, query []float32, k int, params map[string]string) []int64 {
	t.Helper()
	scanned, err := idx.Scan([]am.Query{{Vec: query, K: k}}, testutil.ScanOpts(t, params))
	if err != nil {
		t.Fatal(err)
	}
	res := scanned[0]
	tbl, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(res))
	for i, r := range res {
		err := tbl.Get(r.TID, func(tup []byte) error {
			vals, err := tbl.Schema().Decode(tup)
			if err != nil {
				return err
			}
			ids[i] = int64(vals[0].(int32))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func recallOf(t *testing.T, d *DB, idx am.Index, k int, params map[string]string) float64 {
	t.Helper()
	ds := testutil.SmallDataset(t)
	results := make([][]int64, ds.NQ())
	for q := 0; q < ds.NQ(); q++ {
		results[q] = searchIDs(t, d, idx, ds.Queries.Row(q), k, params)
	}
	return ds.Recall(results, k)
}

func TestTableRoundTrip(t *testing.T) {
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	tbl, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NTuples() != int64(ds.N()) {
		t.Fatalf("NTuples = %d, want %d", tbl.NTuples(), ds.N())
	}
	count := 0
	err = tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		vals, err := tbl.Schema().Decode(tup)
		if err != nil {
			return false, err
		}
		id := int(vals[0].(int32))
		if id != count {
			return false, fmt.Errorf("scan order: got id %d at position %d", id, count)
		}
		v := vals[1].([]float32)
		want := ds.Base.Row(id)
		for j := range v {
			if v[j] != want[j] {
				return false, fmt.Errorf("row %d component %d: %v != %v", id, j, v[j], want[j])
			}
		}
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != ds.N() {
		t.Fatalf("scanned %d tuples, want %d", count, ds.N())
	}
}

func TestPaseIVFFlatRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	idx, err := d.CreateIndex("ivf_idx", "t", "vec", "ivfflat",
		map[string]string{"clusters": fmt.Sprint(ds.NumClusters()), "seed": "1"})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive probing must be exact.
	if r := recallOf(t, d, idx, 10, map[string]string{"nprobe": fmt.Sprint(ds.NumClusters())}); r != 1 {
		t.Errorf("exhaustive recall = %v, want 1", r)
	}
	// The paper's default nprobe=20 on ~45 clusters should be accurate.
	if r := recallOf(t, d, idx, 10, map[string]string{"nprobe": "20"}); r < 0.8 {
		t.Errorf("recall@10 nprobe=20 = %v, want >= 0.8", r)
	}
}

func TestPaseIVFFlatParallelMatchesSerial(t *testing.T) {
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	idx, err := d.CreateIndex("ivf_idx", "t", "vec", "ivfflat",
		map[string]string{"clusters": fmt.Sprint(ds.NumClusters()), "seed": "2"})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5; q++ {
		serial := searchIDs(t, d, idx, ds.Queries.Row(q), 10, map[string]string{"nprobe": "10"})
		par := searchIDs(t, d, idx, ds.Queries.Row(q), 10, map[string]string{"nprobe": "10", "threads": "4"})
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("query %d rank %d: serial id %d vs parallel id %d", q, i, serial[i], par[i])
			}
		}
	}
}

func TestPaseIVFPQRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	idx, err := d.CreateIndex("pq_idx", "t", "vec", "ivfpq", map[string]string{
		"clusters": fmt.Sprint(ds.NumClusters()), "m": "16", "ksub": "64", "seed": "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := recallOf(t, d, idx, 10, map[string]string{"nprobe": "10"}); r < 0.35 {
		t.Errorf("PQ recall@10 = %v, want >= 0.35", r)
	}
}

func TestPaseHNSWRecall(t *testing.T) {
	d := loadSmall(t, Config{})
	idx, err := d.CreateIndex("hnsw_idx", "t", "vec", "hnsw",
		map[string]string{"bnn": "16", "efb": "40", "seed": "4"})
	if err != nil {
		t.Fatal(err)
	}
	if r := recallOf(t, d, idx, 10, map[string]string{"efs": "200"}); r < 0.85 {
		t.Errorf("HNSW recall@10 efs=200 = %v, want >= 0.85", r)
	}
}

func TestPgvectorBaselineRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	idx, err := d.CreateIndex("pgv_idx", "t", "vec", "pgv_ivfflat",
		map[string]string{"clusters": fmt.Sprint(ds.NumClusters()), "seed": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if r := recallOf(t, d, idx, 10, map[string]string{"nprobe": "20"}); r < 0.8 {
		t.Errorf("pgvector-style recall@10 = %v, want >= 0.8", r)
	}
}

func TestHNSWSizeBlowupAndPageSize(t *testing.T) {
	// RC#4: the PASE HNSW relation should dwarf the raw vector payload,
	// and halving the page size should roughly halve it (Table IV) — a
	// statement about the page-per-adjacency-list layout, so packed =
	// false is named: CREATE INDEX defaults to the packed one.
	ds := testutil.SmallDataset(t)
	sizes := map[int]int64{}
	for _, ps := range []int{8192, 4096} {
		d := loadSmall(t, Config{PageSize: ps})
		idx, err := d.CreateIndex("hnsw_idx", "t", "vec", "hnsw",
			map[string]string{"bnn": "16", "efb": "40", "seed": "6", "packed": "false"})
		if err != nil {
			t.Fatal(err)
		}
		sz, err := idx.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		sizes[ps] = sz
	}
	rawBytes := int64(ds.N()) * int64(ds.Dim) * 4
	if sizes[8192] < 2*rawBytes {
		t.Errorf("8KiB HNSW index %d bytes; expected ≥ 2× raw payload %d (RC#4)", sizes[8192], rawBytes)
	}
	ratio := float64(sizes[8192]) / float64(sizes[4096])
	if ratio < 1.4 || ratio > 2.6 {
		t.Errorf("8KiB/4KiB size ratio = %v, want ≈ 2 (Table IV)", ratio)
	}
}

func TestIVFSizesReasonable(t *testing.T) {
	// Fig 11/12: IVF page layouts align well with memory layout — the
	// relation should be within ~2× of the raw payload, and PQ much
	// smaller than FLAT.
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	flat, err := d.CreateIndex("f_idx", "t", "vec", "ivfflat",
		map[string]string{"clusters": fmt.Sprint(ds.NumClusters()), "seed": "7"})
	if err != nil {
		t.Fatal(err)
	}
	pqIdx, err := d.CreateIndex("p_idx", "t", "vec", "ivfpq", map[string]string{
		"clusters": fmt.Sprint(ds.NumClusters()), "m": "16", "ksub": "64", "seed": "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := int64(ds.N()) * int64(ds.Dim) * 4
	fs, _ := flat.SizeBytes()
	ps, _ := pqIdx.SizeBytes()
	if fs > 2*rawBytes {
		t.Errorf("IVF_FLAT relation %d bytes vs raw %d — layout should align (Fig 11)", fs, rawBytes)
	}
	if ps >= fs/2 {
		t.Errorf("IVF_PQ %d should be far smaller than IVF_FLAT %d", ps, fs)
	}
}

func TestInsertMaintainsIndexes(t *testing.T) {
	ds := testutil.SmallDataset(t)
	d := loadSmall(t, Config{})
	_, err := d.CreateIndex("ivf_idx", "t", "vec", "ivfflat",
		map[string]string{"clusters": fmt.Sprint(ds.NumClusters()), "seed": "8"})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a brand-new far-away vector; it must become findable.
	far := make([]float32, ds.Dim)
	for i := range far {
		far[i] = 500
	}
	if _, err := d.Insert("t", []any{int32(999999), far}); err != nil {
		t.Fatal(err)
	}
	idx, err := d.Index("ivf_idx")
	if err != nil {
		t.Fatal(err)
	}
	ids := searchIDs(t, d, idx, far, 1, map[string]string{"nprobe": "5"})
	if len(ids) != 1 || ids[0] != 999999 {
		t.Errorf("freshly inserted vector not found: got %v", ids)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	d := loadSmall(t, Config{})
	if _, err := d.CreateIndex("x", "t", "nope", "ivfflat", nil); err == nil {
		t.Error("accepted missing column")
	}
	if _, err := d.CreateIndex("x", "nope", "vec", "ivfflat", nil); err == nil {
		t.Error("accepted missing table")
	}
	if _, err := d.CreateIndex("x", "t", "vec", "btree", nil); err == nil {
		t.Error("accepted unknown AM")
	}
}

func TestBufferStatsAccumulate(t *testing.T) {
	d := loadSmall(t, Config{})
	st := d.Pool().Stats()
	if st.Hits == 0 {
		t.Error("no buffer hits recorded during load")
	}
}
