package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vecstudy/internal/core"
	"vecstudy/internal/dataset"
	"vecstudy/internal/kmeans"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
)

func init() {
	register(Experiment{
		ID:    "ablation_io",
		Title: "PASE IVF_FLAT build on in-memory pages vs file-backed pages (the paper's tmpfs check)",
		Paper: "Sec V-A2: 'even if we use tmpfs ... the performance does not change much' — disk I/O is not the cause",
		Run:   runAblationIO,
	})
	register(Experiment{
		ID:    "ablation_heap",
		Title: "PASE IVF_FLAT search with size-n collector vs bounded size-k heap (RC#6 isolated)",
		Paper: "Table V attributes 13.4% of PASE search to the min-heap; a size-k heap removes most of it",
		Run:   runAblationHeap,
	})
	register(Experiment{
		ID:    "ablation_pqtab",
		Title: "Specialized IVF_PQ search with precomputed tables on vs off (RC#7 isolated)",
		Paper: "Fig 19b: the naive per-bucket table makes the gap grow with nprobe",
		Run:   runAblationPQTab,
	})
	register(Experiment{
		ID:    "ablation_layout",
		Title: "Generalized HNSW: page-per-adjacency-list (PASE) vs packed memory-optimized layout",
		Paper: "Sec IX-C Step#1/Step#5: a memory-optimized table design bridges RC#4's space blow-up and part of RC#2",
		Run:   runAblationLayout,
	})
	register(Experiment{
		ID:    "ablation_kmeans",
		Title: "Specialized IVF_FLAT search with Faiss-flavour vs PASE-flavour K-means (RC#5 isolated)",
		Paper: "Fig 15: clustering quality alone changes IVF search time",
		Run:   runAblationKMeans,
	})
}

func runAblationIO(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("storage     build_total_s\n")
	// In-memory pages (tmpfs equivalent).
	p := core.Defaults(ds)
	gen, gb, err := core.BuildGeneralized(core.IVFFlat, ds, p)
	if err != nil {
		return err
	}
	gen.Close()
	cfg.printf("%-11s %.3f\n", "memory", secs(gb.Total))

	// File-backed pages.
	dir, err := os.MkdirTemp("", "vecstudy-io-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fileTotal, err := buildFileBacked(ds, p, filepath.Join(dir, "db"))
	if err != nil {
		return err
	}
	cfg.printf("%-11s %.3f\n", "file", secs(fileTotal))
	cfg.printf("# near-identical times confirm the gap is not disk I/O (buffer pool absorbs it)\n")
	return nil
}

// buildFileBacked loads the dataset into a file-backed database and
// times CREATE INDEX.
func buildFileBacked(ds *dataset.Dataset, p core.Params, dir string) (time.Duration, error) {
	d, err := db.Open(db.Config{Dir: dir, PageSize: p.PageSize})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	schema := heap.Schema{Cols: []heap.Column{
		{Name: "id", Type: heap.Int4},
		{Name: "vec", Type: heap.Float4Array},
	}}
	tbl, err := d.CreateTable("t", schema)
	if err != nil {
		return 0, err
	}
	row := make([]any, 2)
	for i := 0; i < ds.N(); i++ {
		row[0], row[1] = int32(i), ds.Base.Row(i)
		if _, err := tbl.Insert(row); err != nil {
			return 0, err
		}
	}
	opts := map[string]string{
		"clusters":     strconv.Itoa(p.C),
		"sample_ratio": strconv.FormatFloat(p.SR, 'g', -1, 64),
		"seed":         strconv.FormatInt(p.Seed, 10),
	}
	start := time.Now()
	if _, err := d.CreateIndex("idx", "t", "vec", "ivfflat", opts); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func runAblationHeap(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	p := core.Defaults(ds)
	p.K = 10
	gen, _, err := core.BuildGeneralized(core.IVFFlat, ds, p)
	if err != nil {
		return err
	}
	defer gen.Close()
	cfg.printf("heap     avg_query   recall@k\n")
	for _, heapMode := range []string{"n", "k"} {
		gen.ScanOpts().HeapK = heapMode == "k"
		if err := core.WarmUp(gen, ds, p.K, 4); err != nil {
			return err
		}
		res, err := core.RunSearch(gen, ds, p.K)
		if err != nil {
			return err
		}
		cfg.printf("size-%-3s %-11v %.3f\n", heapMode, res.AvgLatency.Round(time.Microsecond), res.Recall)
	}
	return nil
}

func runAblationPQTab(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("precompute  nprobe  avg_query\n")
	for _, pre := range []bool{true, false} {
		p := core.Defaults(ds)
		p.K = 10
		p.PrecomputeTable = pre
		spec, _, err := core.BuildSpecialized(core.IVFPQ, ds, p)
		if err != nil {
			return err
		}
		for _, nprobe := range []int{10, 20, 50} {
			spec.SetSearchParams(nprobe, 0, 0)
			res, err := core.RunSearch(spec, ds, p.K)
			if err != nil {
				return err
			}
			cfg.printf("%-11v %-7d %v\n", pre, nprobe, res.AvgLatency.Round(time.Microsecond))
		}
		spec.Close()
	}
	cfg.printf("# the naive-table cost grows with nprobe, the precomputed-table cost does not (RC#7)\n")
	return nil
}

func runAblationLayout(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("layout   build_s   size_MB    avg_query   recall@k\n")
	for _, packed := range []bool{false, true} {
		p := core.Defaults(ds)
		p.K = 10
		p.Packed = packed
		gen, gb, err := core.BuildGeneralized(core.HNSW, ds, p)
		if err != nil {
			return err
		}
		if err := core.WarmUp(gen, ds, p.K, 4); err != nil {
			return err
		}
		res, err := core.RunSearch(gen, ds, p.K)
		if err != nil {
			return err
		}
		label := "pase"
		if packed {
			label = "packed"
		}
		cfg.printf("%-8s %-9.3f %-10.2f %-11v %.3f\n", label, secs(gb.Total), mb(gb.SizeBytes),
			res.AvgLatency.Round(time.Microsecond), res.Recall)
		gen.Close()
	}
	return nil
}

func runAblationKMeans(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	cfg.printf("kmeans   avg_query   recall@k\n")
	for _, flavor := range []kmeans.Flavor{kmeans.FlavorFaiss, kmeans.FlavorPASE} {
		p := core.Defaults(ds)
		p.K = 10
		p.KMeansFlavor = flavor
		spec, _, err := core.BuildSpecialized(core.IVFFlat, ds, p)
		if err != nil {
			return err
		}
		res, err := core.RunSearch(spec, ds, p.K)
		if err != nil {
			return err
		}
		spec.Close()
		cfg.printf("%-8s %-11v %.3f\n", flavor, res.AvgLatency.Round(time.Microsecond), res.Recall)
	}
	return nil
}
