package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vecstudy/internal/core"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"
	"vecstudy/internal/vec"
)

func init() {
	register(Experiment{
		ID:    "kernels",
		Title: "End-to-end kNN throughput under each distance kernel (SET distance_kernel)",
		Paper: "Table V / RC#5: fvec_L2sqr dominates the scan, so the kernel's instruction mix sets the query ceiling",
		Run:   runKernels,
	})
}

// runKernels builds one ivfflat index and replays the identical kNN
// workload once per session kernel — ref (the PASE-style scalar
// baseline), unrolled (generic Go), and avx2 where the host registers
// it. The session is pinned to the paper positions first (heap = n), so
// the only variable across rows is SET distance_kernel, and the speedup
// column is the end-to-end realization of the microbench ratios
// cmd/kernelgate gates: how much of the kernel-level win survives page
// pinning, heap pushes, and SQL dispatch. Unregistered known kernels
// (avx2 on a host without the ISA) are skipped rather than silently
// re-measuring the fallback.
func runKernels(cfg *Config) error {
	const k = 10
	for _, name := range cfg.Datasets {
		ds, err := cfg.Dataset(name, k)
		if err != nil {
			return err
		}
		n := ds.N()
		clusters := ds.NumClusters()
		// Same scan-dominated operating point as -exp sq8: the kernel
		// difference is per-candidate, so probe enough buckets that
		// candidate scoring dominates the fixed per-query costs.
		nprobe := clusters / 4
		if nprobe < 1 {
			nprobe = 1
		}
		cfg.printf("dataset=%s n=%d d=%d clusters=%d nprobe=%d k=%d am=ivfflat heap=n\n",
			name, n, ds.Base.D, clusters, nprobe, k)
		cfg.printf("kernel    avg_query   qps       recall@k  qps_vs_ref\n")

		var vb strings.Builder
		vecLit := func(v []float32) string {
			vb.Reset()
			vb.WriteByte('{')
			for j, x := range v {
				if j > 0 {
					vb.WriteByte(',')
				}
				vb.WriteString(strconv.FormatFloat(float64(x), 'g', -1, 32))
			}
			vb.WriteByte('}')
			return vb.String()
		}

		d, err := db.Open(db.Config{})
		if err != nil {
			return err
		}
		sess := sql.NewSession(d)
		if err := core.PinSession(sess); err != nil {
			d.Close()
			return err
		}
		if _, err := sess.Execute("CREATE TABLE t (id int, vec float[])"); err != nil {
			d.Close()
			return err
		}
		var sb strings.Builder
		for lo := 0; lo < n; lo += 200 {
			hi := lo + 200
			if hi > n {
				hi = n
			}
			sb.Reset()
			sb.WriteString("INSERT INTO t VALUES ")
			for i := lo; i < hi; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, '%s')", i, vecLit(ds.Base.Row(i)))
			}
			if _, err := sess.Execute(sb.String()); err != nil {
				d.Close()
				return err
			}
		}
		if _, err := sess.Execute(fmt.Sprintf(
			"CREATE INDEX kern_idx ON t USING ivfflat (vec) WITH (clusters = %d, sample_ratio = 1, seed = 1)",
			clusters)); err != nil {
			d.Close()
			return err
		}
		if _, err := sess.Execute(fmt.Sprintf("SET nprobe = %d", nprobe)); err != nil {
			d.Close()
			return err
		}

		queries := make([]string, ds.NQ())
		for q := range queries {
			queries[q] = fmt.Sprintf(
				"SELECT id FROM t ORDER BY vec <-> '%s' LIMIT %d", vecLit(ds.Queries.Row(q)), k)
		}

		// ref runs first so every later row has its baseline.
		kernelOrder := []string{"ref"}
		for _, kn := range vec.RegisteredKernelNames() {
			if kn != "ref" {
				kernelOrder = append(kernelOrder, kn)
			}
		}

		var refQPS float64
		for _, kernel := range kernelOrder {
			if _, err := sess.Execute(fmt.Sprintf("SET distance_kernel = %s", kernel)); err != nil {
				d.Close()
				return err
			}
			var hit, want int
			start := time.Now()
			for q := 0; q < ds.NQ(); q++ {
				res, err := sess.Execute(queries[q])
				if err != nil {
					d.Close()
					return err
				}
				truth := map[int32]bool{}
				for _, id := range ds.GroundTruth[q][:k] {
					truth[id] = true
				}
				want += k
				for _, row := range res.Rows {
					if truth[row[0].(int32)] {
						hit++
					}
				}
			}
			elapsed := time.Since(start)
			qps := float64(ds.NQ()) / secs(elapsed)
			ratioCol := ""
			if kernel == "ref" {
				refQPS = qps
			} else if refQPS > 0 {
				ratioCol = fmt.Sprintf("%.2f", qps/refQPS)
			}
			cfg.printf("%-9s %-11v %-9.1f %-9.3f %s\n",
				kernel, (elapsed / time.Duration(ds.NQ())).Round(time.Microsecond),
				qps, float64(hit)/float64(want), ratioCol)
		}
		d.Close()
	}
	return nil
}
