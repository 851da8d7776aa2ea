package core

import (
	"fmt"

	"vecstudy/internal/dataset"
	"vecstudy/internal/faiss/ivfflat"
	paseivfflat "vecstudy/internal/pase/ivfflat"
)

// BuildFaissStar reproduces the paper's Fig 15 construction: a
// specialized IVF_FLAT index ("Faiss*") that uses the *generalized*
// index's centroids and exact cluster assignments, isolating the K-means
// implementation difference (RC#5) from everything else.
func BuildFaissStar(gen *GeneralizedIndex, ds *dataset.Dataset, p Params) (*SpecializedIndex, error) {
	paseIdx, ok := gen.AM().(*paseivfflat.Index)
	if !ok {
		return nil, fmt.Errorf("core: Faiss* requires a generalized ivfflat index, have %s", gen.AM().AM())
	}
	star, err := ivfflat.New(ivfflat.Options{
		Dim: ds.Dim, NList: paseIdx.NList(), UseGemm: p.UseGemm,
		Threads: p.BuildThreads, Seed: p.Seed, Kernel: paperKern,
	})
	if err != nil {
		return nil, err
	}
	if err := star.SetCentroids(paseIdx.Centroids()); err != nil {
		return nil, err
	}

	// Map each indexed TID back to its dataset row ID, then feed the
	// exact same clustering into the specialized index.
	tidAssign, err := paseIdx.Assignments()
	if err != nil {
		return nil, err
	}
	assign := make([]int32, ds.N())
	ids := make([]int64, ds.N())
	found := 0
	tbl := gen.Table()
	for tid, cluster := range tidAssign {
		var rowID int64
		//vetvec:visibility-checked — build-time pass over a freshly loaded, churn-free table
		err := tbl.Get(tid, func(tup []byte) error {
			vals, err := tbl.Schema().Decode(tup)
			if err != nil {
				return err
			}
			rowID = int64(vals[0].(int32))
			return nil
		})
		if err != nil {
			return nil, err
		}
		if rowID < 0 || rowID >= int64(ds.N()) {
			return nil, fmt.Errorf("core: row id %d out of dataset range", rowID)
		}
		assign[rowID] = cluster
		ids[rowID] = rowID
		found++
	}
	if found != ds.N() {
		return nil, fmt.Errorf("core: transplant covered %d of %d rows", found, ds.N())
	}
	if err := star.AddPreassigned(ds.Base.Data, ds.N(), ids, assign); err != nil {
		return nil, err
	}
	return &SpecializedIndex{kind: IVFFlat, params: p, ivf: star}, nil
}
