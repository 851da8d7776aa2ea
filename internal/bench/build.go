package bench

import (
	"time"

	"vecstudy/internal/core"
	"vecstudy/internal/dataset"
	"vecstudy/internal/prof"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "IVF_FLAT index construction time, both engines (train/add split)",
		Paper: "PASE is 35.0×–84.8× slower than Faiss; the adding phase dominates (w/ MKL SGEMM; pure-Go SGEMM compresses the magnitude, direction preserved)",
		Run:   func(cfg *Config) error { return runBuild(cfg, core.IVFFlat, true) },
	})
	register(Experiment{
		ID:    "fig4",
		Title: "IVF_FLAT construction with SGEMM disabled in the specialized engine",
		Paper: "without SGEMM the adding phases converge; residual train gap is the K-means implementation (RC#5)",
		Run:   func(cfg *Config) error { return runBuild(cfg, core.IVFFlat, false) },
	})
	register(Experiment{
		ID:    "fig5",
		Title: "IVF_PQ index construction time, both engines",
		Paper: "Faiss outperforms PASE by 6.5×–20.2× (same RC#1 mechanism as Fig 3)",
		Run:   func(cfg *Config) error { return runBuild(cfg, core.IVFPQ, true) },
	})
	register(Experiment{
		ID:    "fig6",
		Title: "IVF_PQ construction with SGEMM disabled",
		Paper: "gap becomes negligible once SGEMM is off",
		Run:   func(cfg *Config) error { return runBuild(cfg, core.IVFPQ, false) },
	})
	register(Experiment{
		ID:    "fig7",
		Title: "HNSW index construction time, both engines",
		Paper: "PASE 1.6×–8.7× slower; cause is buffer-manager tuple access (RC#2), not SGEMM",
		Run:   func(cfg *Config) error { return runBuild(cfg, core.HNSW, true) },
	})
	register(Experiment{
		ID:    "tab3",
		Title: "Time breakdown of HNSW building (SearchNbToAdd/AddLink/GreedyUpdate/ShrinkNbList)",
		Paper: "SearchNbToAdd dominates both engines (75.6% PASE, 70.4% Faiss); PASE's is 3.4× slower in absolute time",
		Run:   runTab3,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Breakdown inside SearchNbToAdd during HNSW build",
		Paper: "Faiss spends 80.6% on distance calc; PASE only 22% — 46% goes to tuple access, 14% to HVTGet, 7.7% to pasepfirst",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Specialized-engine parallel build: threads × {IVF_FLAT, IVF_PQ} × {SGEMM on, off}",
		Paper: "all configurations scale with threads except IVF_FLAT with SGEMM (its adding phase is already small)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Build-time gap vs parameters: c for IVF kinds, bnn for HNSW",
		Paper: "the PASE/Faiss gap widens as c and bnn grow",
		Run:   runFig10,
	})
}

// runBuild is the Fig 3–7 driver: build one index kind in both engines on
// every dataset and print the train/add/total split plus the gap.
func runBuild(cfg *Config, kind core.IndexKind, useGemm bool) error {
	cfg.printf("dataset       engine       train_s   add_s     total_s   gap_x\n")
	for _, name := range cfg.Datasets {
		ds, err := cfg.Dataset(name, 10)
		if err != nil {
			return err
		}
		p := core.Defaults(ds)
		p.UseGemm = useGemm
		spec, sb, err := core.BuildSpecialized(kind, ds, p)
		if err != nil {
			return err
		}
		spec.Close()
		gen, gb, err := core.BuildGeneralized(kind, ds, p)
		if err != nil {
			return err
		}
		gen.Close()
		cfg.printf("%-13s %-12s %-9.3f %-9.3f %-9.3f\n", name, "specialized", secs(sb.TrainTime), secs(sb.AddTime), secs(sb.Total))
		cfg.printf("%-13s %-12s %-9.3f %-9.3f %-9.3f %.2f\n", name, "generalized", secs(gb.TrainTime), secs(gb.AddTime), secs(gb.Total), ratio(sb.Total, gb.Total))
	}
	return nil
}

// tab3Phases are Table III's rows, in the paper's order.
var tab3Phases = []string{"SearchNbToAdd", "AddLink", "GreedyUpdate", "ShrinkNbList"}

// fig8Parts are the parts of SearchNbToAdd that Fig 8 shows per engine.
var fig8Parts = map[core.Engine][]string{
	core.Specialized: {partDist, partVisited},
	core.Generalized: {partDist, partTuple, partHVT, partNbList},
}

// buildIn builds kind in the specialized or the generalized engine.
func buildIn(engine core.Engine, kind core.IndexKind, ds *dataset.Dataset, p core.Params) (core.Index, core.BuildResult, error) {
	if engine == core.Specialized {
		return core.BuildSpecialized(kind, ds, p)
	}
	return core.BuildGeneralized(kind, ds, p)
}

// sampleHNSWBuild builds HNSW in one engine under the CPU profiler and
// returns the build's samples with its wall time.
func sampleHNSWBuild(ds *dataset.Dataset, engine core.Engine) (breakdown, time.Duration, error) {
	var total time.Duration
	stacks, err := prof.Sample(func() error {
		ix, br, err := buildIn(engine, core.HNSW, ds, core.Defaults(ds))
		if err != nil {
			return err
		}
		total = br.Total
		return ix.Close()
	})
	if err != nil {
		return breakdown{}, 0, err
	}
	return tally(stacks), total, nil
}

// runTab3 samples an HNSW build in both engines and reports each phase's
// share of the build's samples.
func runTab3(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	for _, engine := range []core.Engine{core.Specialized, core.Generalized} {
		b, total, err := sampleHNSWBuild(ds, engine)
		if err != nil {
			return err
		}
		cfg.printf("%s HNSW build on %s (total %v, %d samples):\n", engine, ds.Name, total.Round(time.Millisecond), b.total)
		cfg.printShares(b.phases, tab3Phases, b.total)
	}
	cfg.printf("# note: shares of CPU samples at 100 Hz, ± a 95%% binomial spread\n")
	return nil
}

// runFig8 samples an HNSW build in both engines and reports the parts of
// SearchNbToAdd as shares of that phase's own samples.
func runFig8(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	for _, engine := range []core.Engine{core.Specialized, core.Generalized} {
		b, _, err := sampleHNSWBuild(ds, engine)
		if err != nil {
			return err
		}
		n := b.phases["SearchNbToAdd"]
		cfg.printf("%s SearchNbToAdd on %s (%d of %d build samples):\n", engine, ds.Name, n, b.total)
		cfg.printShares(b.parts["SearchNbToAdd"], fig8Parts[engine], n)
	}
	cfg.printf("# note: shares of SearchNbToAdd's CPU samples at 100 Hz, ± a 95%% binomial spread\n")
	return nil
}

// runFig9 sweeps build threads on the specialized engine.
func runFig9(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("kind      sgemm  threads  train_s   add_s     total_s   speedup_x\n")
	for _, kind := range []core.IndexKind{core.IVFFlat, core.IVFPQ} {
		for _, gemm := range []bool{true, false} {
			var base time.Duration
			for _, threads := range []int{1, 2, 4, 8} {
				p := core.Defaults(ds)
				p.UseGemm = gemm
				p.BuildThreads = threads
				ix, br, err := core.BuildSpecialized(kind, ds, p)
				if err != nil {
					return err
				}
				ix.Close()
				if threads == 1 {
					base = br.Total
				}
				cfg.printf("%-9s %-6v %-8d %-9.3f %-9.3f %-9.3f %.2f\n",
					kind, gemm, threads, secs(br.TrainTime), secs(br.AddTime), secs(br.Total), ratio(br.Total, base))
			}
		}
	}
	return nil
}

// runFig10 sweeps c (IVF kinds) and bnn (HNSW) and reports the build gap.
func runFig10(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	base := core.Defaults(ds)
	// The paper fixes c ∈ {100, 500, 1000} on SIFT1M; scale-proportional
	// values keep the same c/√n ratios at laptop scale.
	cs := []int{base.C / 2, base.C, base.C * 2}
	cfg.printf("kind      param      spec_total_s  gen_total_s  gap_x\n")
	for _, kind := range []core.IndexKind{core.IVFFlat, core.IVFPQ} {
		for _, c := range cs {
			p := base
			p.C = c
			spec, sb, err := core.BuildSpecialized(kind, ds, p)
			if err != nil {
				return err
			}
			spec.Close()
			gen, gb, err := core.BuildGeneralized(kind, ds, p)
			if err != nil {
				return err
			}
			gen.Close()
			cfg.printf("%-9s c=%-8d %-13.3f %-12.3f %.2f\n", kind, c, secs(sb.Total), secs(gb.Total), ratio(sb.Total, gb.Total))
		}
	}
	for _, bnn := range []int{16, 32, 64} {
		p := base
		p.BNN = bnn
		spec, sb, err := core.BuildSpecialized(core.HNSW, ds, p)
		if err != nil {
			return err
		}
		spec.Close()
		gen, gb, err := core.BuildGeneralized(core.HNSW, ds, p)
		if err != nil {
			return err
		}
		gen.Close()
		cfg.printf("%-9s bnn=%-6d %-13.3f %-12.3f %.2f\n", core.HNSW, bnn, secs(sb.Total), secs(gb.Total), ratio(sb.Total, gb.Total))
	}
	return nil
}
