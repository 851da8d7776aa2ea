package core

import (
	"fmt"
	"strconv"
	"time"

	"vecstudy/internal/dataset"
	paseivfflat "vecstudy/internal/pase/ivfflat"
	paseivfpq "vecstudy/internal/pase/ivfpq"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"

	_ "vecstudy/internal/pase/all" // register the generalized AMs
)

// GeneralizedIndex wraps a PASE-style index, its database, and the heap
// table it indexes. Searches return dataset row IDs by resolving each
// result TID through the heap — the same tuple fetches the SQL executor
// performs for `SELECT id ... LIMIT k`.
type GeneralizedIndex struct {
	kind   IndexKind
	engine Engine
	params Params
	db     *db.DB
	table  *heap.Table
	idx    am.Index
	scan   am.ScanOpts
}

// amName maps (kind, engine) to the registered access-method name.
func amName(kind IndexKind, engine Engine) (string, error) {
	if engine == GeneralizedBaseline {
		if kind != IVFFlat {
			return "", fmt.Errorf("core: the pgvector-style baseline only implements IVF_FLAT")
		}
		return "pgv_ivfflat", nil
	}
	switch kind {
	case IVFFlat:
		return "ivfflat", nil
	case IVFPQ:
		return "ivfpq", nil
	case HNSW:
		return "hnsw", nil
	}
	return "", fmt.Errorf("core: unknown index kind %q", kind)
}

// BuildGeneralized loads the dataset into a fresh in-memory database
// table (id int, vec float[]) and builds the requested index on it.
// The returned BuildResult's Total covers only the index build (the
// paper's Figs 3–7 measure CREATE INDEX, not the data load).
func BuildGeneralized(kind IndexKind, ds *dataset.Dataset, p Params) (*GeneralizedIndex, BuildResult, error) {
	return buildGeneralized(kind, Generalized, ds, p)
}

// BuildGeneralizedBaseline builds the pgvector-style Fig 2 baseline.
func BuildGeneralizedBaseline(ds *dataset.Dataset, p Params) (*GeneralizedIndex, BuildResult, error) {
	return buildGeneralized(IVFFlat, GeneralizedBaseline, ds, p)
}

func buildGeneralized(kind IndexKind, engine Engine, ds *dataset.Dataset, p Params) (*GeneralizedIndex, BuildResult, error) {
	res := BuildResult{Engine: engine, Kind: kind, N: ds.N()}
	name, err := amName(kind, engine)
	if err != nil {
		return nil, res, err
	}
	frames := p.BufferFrames
	if frames == 0 {
		// Size the pool to keep the table and index memory-resident, per
		// the paper's methodology (Sec III).
		pageSize := p.PageSize
		if pageSize == 0 {
			pageSize = 8192
		}
		dataBytes := int64(ds.N()) * (int64(ds.Dim)*4 + 64)
		frames = int(6*dataBytes/int64(pageSize)) + 1024
	}
	d, err := db.Open(db.Config{PageSize: p.PageSize, BufferFrames: frames, BufferPartitions: paperPartitions})
	if err != nil {
		return nil, res, err
	}
	schema := heap.Schema{Cols: []heap.Column{
		{Name: "id", Type: heap.Int4},
		{Name: "vec", Type: heap.Float4Array},
	}}
	tbl, err := d.CreateTable("t", schema)
	if err != nil {
		d.Close()
		return nil, res, err
	}
	row := make([]any, 2)
	for i := 0; i < ds.N(); i++ {
		row[0], row[1] = int32(i), ds.Base.Row(i)
		if _, err := tbl.Insert(row); err != nil {
			d.Close()
			return nil, res, err
		}
	}

	opts := map[string]string{"seed": strconv.FormatInt(p.Seed, 10)}
	switch kind {
	case IVFFlat:
		opts["clusters"] = strconv.Itoa(p.C)
		opts["sample_ratio"] = strconv.FormatFloat(p.SR, 'g', -1, 64)
	case IVFPQ:
		opts["clusters"] = strconv.Itoa(p.C)
		opts["sample_ratio"] = strconv.FormatFloat(p.SR, 'g', -1, 64)
		opts["m"] = strconv.Itoa(p.M)
		opts["ksub"] = strconv.Itoa(p.KSub)
	case HNSW:
		opts["bnn"] = strconv.Itoa(p.BNN)
		opts["efb"] = strconv.Itoa(p.EFB)
		opts["packed"] = strconv.FormatBool(p.Packed)
	}

	start := time.Now()
	idx, err := d.CreateIndex("bench_idx", "t", "vec", name, opts)
	if err != nil {
		d.Close()
		return nil, res, err
	}
	res.Total = time.Since(start)
	switch ix := idx.(type) {
	case *paseivfflat.Index:
		st := ix.Stats()
		res.TrainTime, res.AddTime = st.TrainTime, st.AddTime
	case *paseivfpq.Index:
		st := ix.Stats()
		res.TrainTime, res.AddTime = st.TrainTime, st.AddTime
	}
	size, err := idx.SizeBytes()
	if err != nil {
		d.Close()
		return nil, res, err
	}
	res.SizeBytes = size

	gi := &GeneralizedIndex{
		kind: kind, engine: engine, params: p, db: d, table: tbl, idx: idx,
		scan: *am.DefaultScanOpts(),
	}
	gi.scan.NProbe, gi.scan.EFS, gi.scan.Threads = p.NProbe, p.EFS, p.SearchThreads
	gi.scan.HeapK, gi.scan.Kernel = paperHeapK, paperKern
	return gi, res, nil
}

// Engine implements Index.
func (gi *GeneralizedIndex) Engine() Engine { return gi.engine }

// Kind implements Index.
func (gi *GeneralizedIndex) Kind() IndexKind { return gi.kind }

// Search implements Index: index scan, then one heap tuple fetch per
// result to project the id column. A hit whose tuple has been deleted
// since the index was built is skipped, not resurrected.
func (gi *GeneralizedIndex) Search(query []float32, k int) ([]int64, error) {
	hits, err := gi.idx.Scan([]am.Query{{Vec: query, K: k}}, &gi.scan)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, 0, len(hits[0]))
	for _, h := range hits[0] {
		_, err := gi.table.GetVisible(h.TID, func(tup []byte) error {
			vals, err := gi.table.Schema().Decode(tup)
			if err != nil {
				return err
			}
			ids = append(ids, int64(vals[0].(int32)))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// SizeBytes implements Index.
func (gi *GeneralizedIndex) SizeBytes() int64 {
	size, err := gi.idx.SizeBytes()
	if err != nil {
		return -1
	}
	return size
}

// Close implements Index.
func (gi *GeneralizedIndex) Close() error { return gi.db.Close() }

// SetSearchParams adjusts scan-time knobs between workloads.
func (gi *GeneralizedIndex) SetSearchParams(nprobe, efs, threads int) {
	if nprobe > 0 {
		gi.scan.NProbe = nprobe
	}
	if efs > 0 {
		gi.scan.EFS = efs
	}
	if threads > 0 {
		gi.scan.Threads = threads
	}
}

// ScanOpts exposes the options passed to the access method on every
// search; ablations use it to flip AM-specific knobs (e.g. HeapK).
func (gi *GeneralizedIndex) ScanOpts() *am.ScanOpts { return &gi.scan }

// AM exposes the underlying access method (for centroid transplants and
// structure inspection).
func (gi *GeneralizedIndex) AM() am.Index { return gi.idx }

// DB exposes the backing database (buffer-pool stats, SQL sessions).
func (gi *GeneralizedIndex) DB() *db.DB { return gi.db }

// Table exposes the indexed heap table.
func (gi *GeneralizedIndex) Table() *heap.Table { return gi.table }
