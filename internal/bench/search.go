package bench

import (
	"time"

	"vecstudy/internal/core"
	"vecstudy/internal/prof"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Generalized-engine comparison: PASE-style vs pgvector-style IVF_FLAT search",
		Paper: "PASE exhibits the highest performance among open-source generalized vector databases",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "IVF_FLAT search time, both engines",
		Paper: "PASE is 2.0×–3.4× slower (RC#5 centroids, RC#2 tuple access, RC#6 heap size)",
		Run:   func(cfg *Config) error { return runSearch(cfg, core.IVFFlat) },
	})
	register(Experiment{
		ID:    "tab5",
		Title: "Time breakdown of IVF_FLAT search (fvec_L2sqr / tuple access / min-heap)",
		Paper: "PASE: 54.8% dist, 23.5% tuple access, 13.4% min-heap; Faiss: 95.0% dist, 1.8%, 0.3%",
		Run:   runTab5,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "IVF_FLAT search with PASE's centroids transplanted into the specialized engine (Faiss*)",
		Paper: "with identical clustering the gap shrinks — the K-means difference (RC#5) explains part of Fig 14",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "IVF_PQ search time, both engines",
		Paper: "PASE 3.9×–11.2× slower (adds the naive per-bucket distance table, RC#7)",
		Run:   func(cfg *Config) error { return runSearch(cfg, core.IVFPQ) },
	})
	register(Experiment{
		ID:    "fig17",
		Title: "HNSW search time, both engines",
		Paper: "PASE 2.2×–7.3× slower, dominated by tuple access (RC#2)",
		Run:   func(cfg *Config) error { return runSearch(cfg, core.HNSW) },
	})
	register(Experiment{
		ID:    "fig18",
		Title: "Intra-query parallel search: local heaps (specialized) vs one locked global heap (generalized)",
		Paper: "Faiss scales with threads; PASE does not (global heap + lock, RC#3)",
		Run:   runFig18,
	})
	register(Experiment{
		ID:    "fig19",
		Title: "Search gap vs parameters: nprobe for IVF kinds, efs for HNSW",
		Paper: "IVF_FLAT gap flat in nprobe; IVF_PQ gap grows with nprobe (RC#7); HNSW gap grows with efs (RC#2)",
		Run:   runFig19,
	})
}

func runSearch(cfg *Config, kind core.IndexKind) error {
	cfg.printf("dataset       engine       avg_query  recall@k  gap_x\n")
	for _, name := range cfg.Datasets {
		ds, err := cfg.Dataset(name, 10)
		if err != nil {
			return err
		}
		p := core.Defaults(ds)
		p.K = 10
		cmp, err := core.CompareBoth(kind, ds, p)
		if err != nil {
			return err
		}
		cfg.printf("%-13s %-12s %-10v %-9.3f\n", name, "specialized",
			cmp.SpecSearch.AvgLatency.Round(time.Microsecond), cmp.SpecSearch.Recall)
		cfg.printf("%-13s %-12s %-10v %-9.3f %.2f\n", name, "generalized",
			cmp.GenSearch.AvgLatency.Round(time.Microsecond), cmp.GenSearch.Recall, cmp.SearchGapX())
	}
	return nil
}

func runFig2(cfg *Config) error {
	cfg.printf("dataset       engine            avg_query  recall@k\n")
	for _, name := range cfg.Datasets[:min(2, len(cfg.Datasets))] {
		ds, err := cfg.Dataset(name, 10)
		if err != nil {
			return err
		}
		p := core.Defaults(ds)
		p.K = 10
		pase, _, err := core.BuildGeneralized(core.IVFFlat, ds, p)
		if err != nil {
			return err
		}
		pgv, _, err := core.BuildGeneralizedBaseline(ds, p)
		if err != nil {
			return err
		}
		for _, ix := range []core.Index{pase, pgv} {
			if err := core.WarmUp(ix, ds, p.K, 4); err != nil {
				return err
			}
			res, err := core.RunSearch(ix, ds, p.K)
			if err != nil {
				return err
			}
			label := "pase_ivfflat"
			if ix.Engine() == core.GeneralizedBaseline {
				label = "pgv_ivfflat"
			}
			cfg.printf("%-13s %-17s %-10v %.3f\n", name, label, res.AvgLatency.Round(time.Microsecond), res.Recall)
		}
		pase.Close()
		pgv.Close()
	}
	return nil
}

// tab5Budget is the wall time Table V samples each engine's search for,
// repeating the query set: at the profiler's 100 Hz one pass over a few
// dozen queries catches a handful of samples.
const tab5Budget = 2 * time.Second

// tab5Parts are Table V's rows, in the paper's order.
var tab5Parts = []string{partDist, partTuple, partHeap}

func runTab5(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	for _, engine := range []core.Engine{core.Specialized, core.Generalized} {
		p := core.Defaults(ds)
		p.K = 10
		ix, _, err := buildIn(engine, core.IVFFlat, ds, p)
		if err != nil {
			return err
		}
		if err := core.WarmUp(ix, ds, p.K, 4); err != nil {
			return err
		}
		nq := 0
		start := time.Now()
		stacks, err := prof.Sample(func() error {
			for time.Since(start) < tab5Budget {
				for q := 0; q < ds.NQ(); q++ {
					if _, err := ix.Search(ds.Queries.Row(q), p.K); err != nil {
						return err
					}
					nq++
				}
			}
			return nil
		})
		elapsed := time.Since(start)
		ix.Close()
		if err != nil {
			return err
		}
		b := tally(stacks)
		cfg.printf("%s IVF_FLAT search on %s (avg %v over %d queries, %d samples):\n",
			engine, ds.Name, (elapsed / time.Duration(max(nq, 1))).Round(time.Microsecond), nq, b.total)
		// A search never enters Link: every sample's phase is "".
		cfg.printShares(b.parts[""], tab5Parts, b.total)
	}
	cfg.printf("# note: shares of CPU samples at 100 Hz, ± a 95%% binomial spread\n")
	return nil
}

func runFig15(cfg *Config) error {
	cfg.printf("dataset       engine       avg_query  recall@k\n")
	for _, name := range cfg.Datasets {
		ds, err := cfg.Dataset(name, 10)
		if err != nil {
			return err
		}
		p := core.Defaults(ds)
		p.K = 10
		spec, _, err := core.BuildSpecialized(core.IVFFlat, ds, p)
		if err != nil {
			return err
		}
		gen, _, err := core.BuildGeneralized(core.IVFFlat, ds, p)
		if err != nil {
			return err
		}
		star, err := core.BuildFaissStar(gen, ds, p)
		if err != nil {
			return err
		}
		variants := []struct {
			label string
			ix    core.Index
		}{{"specialized", spec}, {"faiss_star", star}, {"generalized", gen}}
		for _, v := range variants {
			label, ix := v.label, v.ix
			if err := core.WarmUp(ix, ds, p.K, 4); err != nil {
				return err
			}
			res, err := core.RunSearch(ix, ds, p.K)
			if err != nil {
				return err
			}
			cfg.printf("%-13s %-12s %-10v %.3f\n", name, label, res.AvgLatency.Round(time.Microsecond), res.Recall)
		}
		spec.Close()
		star.Close()
		gen.Close()
	}
	return nil
}

func runFig18(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("kind      engine       threads  avg_query   speedup_x\n")
	for _, kind := range []core.IndexKind{core.IVFFlat, core.IVFPQ} {
		p := core.Defaults(ds)
		p.K = 10
		// Probe more buckets so there is parallel work to distribute, as
		// the paper's intra-query parallel experiment does.
		p.NProbe = p.C / 2
		spec, _, err := core.BuildSpecialized(kind, ds, p)
		if err != nil {
			return err
		}
		gen, _, err := core.BuildGeneralized(kind, ds, p)
		if err != nil {
			return err
		}
		for _, pair := range []struct {
			label string
			ix    interface {
				core.Index
				SetSearchParams(nprobe, efs, threads int)
			}
		}{{"specialized", spec}, {"generalized", gen}} {
			var base time.Duration
			for _, threads := range []int{1, 2, 4, 8} {
				pair.ix.SetSearchParams(0, 0, threads)
				if err := core.WarmUp(pair.ix, ds, p.K, 4); err != nil {
					return err
				}
				res, err := core.RunSearch(pair.ix, ds, p.K)
				if err != nil {
					return err
				}
				if threads == 1 {
					base = res.AvgLatency
				}
				cfg.printf("%-9s %-12s %-8d %-11v %.2f\n", kind, pair.label, threads,
					res.AvgLatency.Round(time.Microsecond), ratio(res.AvgLatency, base))
			}
		}
		spec.Close()
		gen.Close()
	}
	return nil
}

func runFig19(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("kind      param        spec_avg    gen_avg     gap_x\n")
	for _, kind := range []core.IndexKind{core.IVFFlat, core.IVFPQ} {
		p := core.Defaults(ds)
		p.K = 10
		spec, _, err := core.BuildSpecialized(kind, ds, p)
		if err != nil {
			return err
		}
		gen, _, err := core.BuildGeneralized(kind, ds, p)
		if err != nil {
			return err
		}
		for _, nprobe := range []int{10, 20, 50} {
			spec.SetSearchParams(nprobe, 0, 0)
			gen.SetSearchParams(nprobe, 0, 0)
			sres, err := core.RunSearch(spec, ds, p.K)
			if err != nil {
				return err
			}
			gres, err := core.RunSearch(gen, ds, p.K)
			if err != nil {
				return err
			}
			cfg.printf("%-9s nprobe=%-6d %-11v %-11v %.2f\n", kind, nprobe,
				sres.AvgLatency.Round(time.Microsecond), gres.AvgLatency.Round(time.Microsecond),
				ratio(sres.AvgLatency, gres.AvgLatency))
		}
		spec.Close()
		gen.Close()
	}
	{
		p := core.Defaults(ds)
		p.K = 10
		spec, _, err := core.BuildSpecialized(core.HNSW, ds, p)
		if err != nil {
			return err
		}
		gen, _, err := core.BuildGeneralized(core.HNSW, ds, p)
		if err != nil {
			return err
		}
		for _, efs := range []int{16, 100, 200} {
			spec.SetSearchParams(0, efs, 0)
			gen.SetSearchParams(0, efs, 0)
			sres, err := core.RunSearch(spec, ds, p.K)
			if err != nil {
				return err
			}
			gres, err := core.RunSearch(gen, ds, p.K)
			if err != nil {
				return err
			}
			cfg.printf("%-9s efs=%-9d %-11v %-11v %.2f\n", core.HNSW, efs,
				sres.AvgLatency.Round(time.Microsecond), gres.AvgLatency.Round(time.Microsecond),
				ratio(sres.AvgLatency, gres.AvgLatency))
		}
		spec.Close()
		gen.Close()
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
