package bench

import (
	"strings"
	"testing"
)

// smokeConfig runs experiments on a tiny workload so the whole registry
// can be exercised in CI time.
func smokeConfig(buf *strings.Builder) *Config {
	return &Config{Scale: 0.002, Queries: 10, Seed: 7, Datasets: []string{"sift1m"}, Out: buf}
}

func TestRegistryCoversEveryFigureAndTable(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"tab3", "tab4", "tab5",
		"ablation_io", "ablation_heap", "ablation_pqtab", "ablation_kmeans", "ablation_layout",
		"qps_cluster",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Errorf("experiment %s not registered: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, inventory lists %d", len(All()), len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown experiment resolved")
	}
}

// TestExperimentsRunAtSmokeScale executes a representative subset of the
// drivers end to end. The heavy sweeps (fig9, fig18) are covered by the
// quick variants here plus the root benchmarks. The sampled breakdowns
// (tab3, fig8, tab5) must also print well-formed shares.
func TestExperimentsRunAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping harness smoke in -short mode")
	}
	for _, id := range []string{"fig2", "fig3", "fig4", "fig8", "fig11", "fig13", "fig14", "fig15", "tab3", "tab4", "tab5", "ablation_heap", "ablation_pqtab", "qps_cluster"} {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf strings.Builder
			if err := Run(id, smokeConfig(&buf)); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, "## "+id+" done") {
				t.Errorf("%s: missing completion footer:\n%s", id, out)
			}
			// Every driver must emit at least one data row beyond headers.
			lines := 0
			for _, l := range strings.Split(out, "\n") {
				if l != "" && !strings.HasPrefix(l, "##") && !strings.HasPrefix(l, "#") {
					lines++
				}
			}
			if lines < 2 {
				t.Errorf("%s: only %d data lines:\n%s", id, lines, out)
			}
			if id == "tab3" || id == "fig8" || id == "tab5" {
				checkShares(t, out)
			}
		})
	}
}

func TestHNSWSizeShapeAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	var buf strings.Builder
	cfg := smokeConfig(&buf)
	if err := Run("fig13", cfg); err != nil {
		t.Fatal(err)
	}
	// The generalized HNSW must be several times larger (paper: 2.9–13.3×).
	out := buf.String()
	if !strings.Contains(out, "ratio_x") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}
