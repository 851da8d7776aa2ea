// Package bench regenerates every table and figure of the paper's
// evaluation (Figs 2–19, Tables III–V) plus the ablations DESIGN.md
// lists, and one scale-out sweep the paper leaves out (qps_cluster: the
// served-stack benchmark in benchmark/ has no multi-shard workload).
// Each experiment is a registered driver that builds the needed
// indexes through internal/core, runs the workload, and prints the same
// rows/series the paper reports, with the paper's reference numbers in
// the header comment so shape can be checked at a glance.
//
// Scale note: the drivers default to laptop-scale datasets (Scale=0.02 ⇒
// 20k vectors for 1M-class datasets). Absolute times are not comparable
// to the paper's 152-core server; orderings, ratios, and trends are.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vecstudy/internal/core"
	"vecstudy/internal/dataset"
)

// Config parameterizes a harness run.
type Config struct {
	Scale    float64  // dataset scale factor; 0 ⇒ 0.02
	Datasets []string // subset of profiles; empty ⇒ all six
	Queries  int      // cap on query count per dataset; 0 ⇒ 100
	Clients  []int    // client counts for qps_cluster; empty ⇒ 1,2,4,8,16
	Seed     int64
	Out      io.Writer

	cache map[string]*dataset.Dataset
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Queries == 0 {
		c.Queries = 100
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Datasets) == 0 {
		for _, p := range dataset.Profiles {
			c.Datasets = append(c.Datasets, p.Name)
		}
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 2, 4, 8, 16}
	}
	if c.cache == nil {
		c.cache = make(map[string]*dataset.Dataset)
	}
}

// Dataset loads (and caches) one profile at the configured scale, with
// ground truth for recall reporting.
func (c *Config) Dataset(name string, k int) (*dataset.Dataset, error) {
	c.defaults()
	key := fmt.Sprintf("%s/%d", name, k)
	if ds, ok := c.cache[key]; ok {
		return ds, nil
	}
	p, err := dataset.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	ds := dataset.Generate(p, dataset.GenOptions{Scale: c.Scale, Seed: c.Seed, MaxQueries: c.Queries})
	ds.ComputeGroundTruth(k, 0)
	c.cache[key] = ds
	return ds, nil
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Experiment is one registered driver.
type Experiment struct {
	ID    string // "fig3", "tab5", "ablation_heap", ...
	Title string
	Paper string // the paper's headline result, for side-by-side reading
	Run   func(cfg *Config) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns a registered experiment.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (see `benchrunner -list`)", id)
	}
	return e, nil
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes one experiment with a standard header.
func Run(id string, cfg *Config) error {
	cfg.defaults()
	e, err := Lookup(id)
	if err != nil {
		return err
	}
	cfg.printf("## %s — %s\n", e.ID, e.Title)
	cfg.printf("## paper: %s\n", e.Paper)
	cfg.printf("## scale=%.3f queries<=%d seed=%d\n", cfg.Scale, cfg.Queries, cfg.Seed)
	cfg.printf("## engines: %s (core.Defaults; a row that moves one says so)\n", core.PaperPositions())
	start := time.Now()
	if err := e.Run(cfg); err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	cfg.printf("## %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

func secs(d time.Duration) float64 { return d.Seconds() }

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func ratio(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return float64(b) / float64(a)
}
