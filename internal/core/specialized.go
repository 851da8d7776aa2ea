package core

import (
	"fmt"
	"time"

	"vecstudy/internal/dataset"
	"vecstudy/internal/faiss/hnsw"
	"vecstudy/internal/faiss/ivfflat"
	"vecstudy/internal/faiss/ivfpq"
	"vecstudy/internal/minheap"
)

// SpecializedIndex wraps one of the in-memory indexes behind the
// engine-neutral Index interface.
type SpecializedIndex struct {
	kind    IndexKind
	params  Params
	ivf     *ivfflat.Index
	pqIdx   *ivfpq.Index
	hnswIdx *hnsw.Index
}

// BuildSpecialized trains and loads a specialized (Faiss-style) index
// over the dataset's base vectors.
func BuildSpecialized(kind IndexKind, ds *dataset.Dataset, p Params) (*SpecializedIndex, BuildResult, error) {
	res := BuildResult{Engine: Specialized, Kind: kind, N: ds.N()}
	si := &SpecializedIndex{kind: kind, params: p}
	start := time.Now()
	switch kind {
	case IVFFlat:
		ix, err := ivfflat.New(ivfflat.Options{
			Dim: ds.Dim, NList: p.C, UseGemm: p.UseGemm, Threads: p.BuildThreads,
			KMeansFlavor: p.KMeansFlavor, SampleRatio: p.SR, Seed: p.Seed, Kernel: paperKern,
		})
		if err != nil {
			return nil, res, err
		}
		if err := ix.Train(ds.Base.Data, ds.N()); err != nil {
			return nil, res, err
		}
		if err := ix.Add(ds.Base.Data, ds.N(), nil); err != nil {
			return nil, res, err
		}
		st := ix.Stats()
		res.TrainTime, res.AddTime = st.TrainTime, st.AddTime
		si.ivf = ix
	case IVFPQ:
		ix, err := ivfpq.New(ivfpq.Options{
			Dim: ds.Dim, NList: p.C, M: p.M, KSub: p.KSub,
			UseGemm: p.UseGemm, Threads: p.BuildThreads, KMeansFlavor: p.KMeansFlavor,
			SampleRatio: p.SR, Seed: p.Seed, PrecomputeTable: p.PrecomputeTable, Kernel: paperKern,
		})
		if err != nil {
			return nil, res, err
		}
		if err := ix.Train(ds.Base.Data, ds.N()); err != nil {
			return nil, res, err
		}
		if err := ix.Add(ds.Base.Data, ds.N(), nil); err != nil {
			return nil, res, err
		}
		st := ix.Stats()
		res.TrainTime, res.AddTime = st.TrainTime, st.AddTime
		si.pqIdx = ix
	case HNSW:
		ix, err := hnsw.New(hnsw.Options{Dim: ds.Dim, BNN: p.BNN, EFB: p.EFB, Seed: p.Seed, Kernel: paperKern})
		if err != nil {
			return nil, res, err
		}
		if err := ix.Add(ds.Base.Data, ds.N()); err != nil {
			return nil, res, err
		}
		si.hnswIdx = ix
	default:
		return nil, res, fmt.Errorf("core: unknown index kind %q", kind)
	}
	res.Total = time.Since(start)
	res.SizeBytes = si.SizeBytes()
	return si, res, nil
}

// Engine implements Index.
func (si *SpecializedIndex) Engine() Engine { return Specialized }

// Kind implements Index.
func (si *SpecializedIndex) Kind() IndexKind { return si.kind }

// Search implements Index.
func (si *SpecializedIndex) Search(query []float32, k int) ([]int64, error) {
	var items []minheap.Item
	var err error
	switch si.kind {
	case IVFFlat:
		items, err = si.ivf.Search(query, k, ivfflat.SearchParams{NProbe: si.params.NProbe, Threads: si.params.SearchThreads})
	case IVFPQ:
		items, err = si.pqIdx.Search(query, k, ivfpq.SearchParams{NProbe: si.params.NProbe, Threads: si.params.SearchThreads})
	case HNSW:
		items, err = si.hnswIdx.Search(query, k, si.params.EFS)
	}
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids, nil
}

// SizeBytes implements Index.
func (si *SpecializedIndex) SizeBytes() int64 {
	switch si.kind {
	case IVFFlat:
		return si.ivf.SizeBytes()
	case IVFPQ:
		return si.pqIdx.SizeBytes()
	case HNSW:
		return si.hnswIdx.SizeBytes()
	}
	return 0
}

// Close implements Index (no external resources on this side).
func (si *SpecializedIndex) Close() error { return nil }

// IVF exposes the underlying IVF_FLAT index for centroid-transplant
// experiments (Fig 15).
func (si *SpecializedIndex) IVF() *ivfflat.Index { return si.ivf }

// SetSearchParams adjusts scan-time knobs between workloads without
// rebuilding.
func (si *SpecializedIndex) SetSearchParams(nprobe, efs, threads int) {
	if nprobe > 0 {
		si.params.NProbe = nprobe
	}
	if efs > 0 {
		si.params.EFS = efs
	}
	if threads > 0 {
		si.params.SearchThreads = threads
	}
}
