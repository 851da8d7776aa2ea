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
		ID:    "sq8",
		Title: "SQ8 quantized search vs full-precision ivfflat at equal probes (recall / QPS / index size)",
		Paper: "quantized scan + full-precision re-rank sets the throughput ceiling, not engine architecture (PAPERS.md GPU study)",
		Run:   runSQ8,
	})
}

// runSQ8 builds ivfflat and ivfsq8 over the same rows through the SQL
// layer and runs the identical kNN workload at equal nprobe, sweeping
// the re-rank multiplier beta in {1, 2, 4}. Reported per AM: build
// time, on-disk index size, average query latency, QPS, recall@k, and
// the QPS ratio against the ivfflat baseline.
func runSQ8(cfg *Config) error {
	const k = 10
	for _, name := range cfg.Datasets {
		ds, err := cfg.Dataset(name, k)
		if err != nil {
			return err
		}
		n := ds.N()
		clusters := ds.NumClusters()
		// nprobe = clusters/4 puts both AMs at a scan-dominated operating
		// point (recall ≈ 1 for both on the clustered synthetic data):
		// the comparison then measures per-candidate scoring cost, which
		// is what quantization changes, rather than the fixed per-query
		// overheads both AMs share.
		nprobe := clusters / 4
		if nprobe < 1 {
			nprobe = 1
		}
		// Both AMs score with the same kernel — the fastest the host
		// registered — so the comparison isolates the quantization, not the
		// instruction set; the ivfflat baseline keeps the paper's heap = n.
		kernel := vec.Default().Name()
		cfg.printf("dataset=%s n=%d d=%d clusters=%d nprobe=%d k=%d kernel=%s heap=n\n",
			name, n, ds.Base.D, clusters, nprobe, k, kernel)
		cfg.printf("am        beta  build_s  size_MB  avg_query   qps       recall@k  qps_vs_flat\n")

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

		type variant struct {
			am   string
			beta int // 0 ⇒ knob not applicable
		}
		variants := []variant{{"ivfflat", 0}, {"ivfsq8", 1}, {"ivfsq8", 2}, {"ivfsq8", 4}}
		var flatQPS float64
		for _, v := range variants {
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

			buildStart := time.Now()
			if _, err := sess.Execute(fmt.Sprintf(
				"CREATE INDEX sq8_idx ON t USING %s (vec) WITH (clusters = %d, sample_ratio = 1, seed = 1)",
				v.am, clusters)); err != nil {
				d.Close()
				return err
			}
			buildTime := time.Since(buildStart)
			var sizeBytes int64
			if ix := d.IndexOn("t", "vec"); ix != nil {
				if sz, err := ix.SizeBytes(); err == nil {
					sizeBytes = sz
				}
			}
			if _, err := sess.Execute(fmt.Sprintf("SET nprobe = %d", nprobe)); err != nil {
				d.Close()
				return err
			}
			if _, err := sess.Execute(fmt.Sprintf("SET distance_kernel = %s", kernel)); err != nil {
				d.Close()
				return err
			}
			if v.beta > 0 {
				if _, err := sess.Execute(fmt.Sprintf("SET sq8_rerank = %d", v.beta)); err != nil {
					d.Close()
					return err
				}
			}

			// Query strings are materialized before the clock starts:
			// formatting a d-dimensional float literal costs more than a
			// probe at small scale, and it is harness cost, not engine cost.
			queries := make([]string, ds.NQ())
			for q := range queries {
				queries[q] = fmt.Sprintf(
					"SELECT id FROM t ORDER BY vec <-> '%s' LIMIT %d", vecLit(ds.Queries.Row(q)), k)
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
			d.Close()

			qps := float64(ds.NQ()) / secs(elapsed)
			recall := float64(hit) / float64(want)
			label := v.am
			betaCol := "-"
			if v.beta > 0 {
				betaCol = strconv.Itoa(v.beta)
			}
			ratioCol := ""
			if v.am == "ivfflat" {
				flatQPS = qps
			} else if flatQPS > 0 {
				ratioCol = fmt.Sprintf("%.2f", qps/flatQPS)
			}
			cfg.printf("%-9s %-5s %-8.2f %-8.2f %-11v %-9.1f %-9.3f %s\n",
				label, betaCol, secs(buildTime), mb(sizeBytes),
				(elapsed / time.Duration(ds.NQ())).Round(time.Microsecond), qps, recall, ratioCol)
		}
	}
	return nil
}
