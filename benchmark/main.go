// Command benchmark is the repository's one served-stack benchmark. It
// builds each workload's database, drives it from this process through
// internal/client → loopback TCP → internal/server → internal/batch →
// internal/pg/sql → access method → pg/buffer and pg/heap, checks the
// outputs and prints every metric by name with its unit. README.md has the
// workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"vecstudy/internal/vec"
)

// metricValue is how a metric is written, in the record and on the result
// line the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what one invocation measured, stamped with where and how.
type record struct {
	Issue       int                        `json:"issue"`
	Commit      string                     `json:"commit"`
	GoVersion   string                     `json:"go"`
	NProc       int                        `json:"nproc"`
	GoMaxProcs  int                        `json:"gomaxprocs"`
	CPU         string                     `json:"cpu"`
	Kernel      string                     `json:"default_kernel"`
	Seed        int64                      `json:"seed"`
	Seconds     float64                    `json:"window_seconds"`
	Warmup      string                     `json:"warmup"`
	SetupReps   int                        `json:"setup_reps"`
	Trace       string                     `json:"trace"`
	Loops       string                     `json:"loops"`
	FlushPolicy string                     `json:"flush_policy"`
	Workloads   map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	runResult
	Metrics map[string]metricValue `json:"metrics"` // runResult.Metrics with units attached
}

func main() {
	var o options
	var names, compare string
	var contract bool
	flag.Int64Var(&o.seed, "seed", 42, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window")
	flag.StringVar(&o.trace, "trace", "both", `"0": end-to-end metrics with tracing off; "1": per-layer metrics from the traced pass; "both"`)
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all); with exactly one, the last line of output is its result as JSON")
	flag.StringVar(&o.out, "out", "", "directory for record.json and the trace_<workload>.jsonl span files")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for file-backed databases")
	flag.StringVar(&compare, "compare", "", "compare two sets of records, A.json[,A2.json...] with the second set as the next argument, instead of running")
	flag.BoolVar(&contract, "contract", false, "print BENCHMARK.json as the registry defines it and exit")
	flag.Parse()
	o.rows = fullRows

	switch {
	case contract:
		os.Stdout.Write(contractJSON())
	case compare != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-compare A.json[,...] B.json[,...]: want exactly two sets of records"))
		}
		worse, err := compareRecords(os.Stdout, strings.Split(compare, ","), strings.Split(flag.Arg(0), ","))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	default:
		if err := run(o, names); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run measures the named workloads one after another, prints them, writes
// the record and fails if any output check did.
func run(o options, names string) error {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return fmt.Errorf(`-trace %q: want "0", "1" or "both"`, o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", o.seconds)
	}
	selected := workloads
	if names != "" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("no workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: fewer than 2 CPUs: ivf_batched and churn_mixed will measure the scheduler, not the engine")
	}
	for _, dir := range []string{o.work, o.out} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	records := map[string]*workloadRecord{}
	var last *workloadRecord
	failed := false
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		last = &workloadRecord{runResult: *res, Metrics: withUnits(res.Metrics, o.trace)}
		records[w.Name] = last
		printWorkload(w, last)
		failed = failed || len(res.Problems) > 0 || res.Failed > 0
	}
	if o.out != "" {
		data, err := json.MarshalIndent(newRecord(o, records), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.out, "record.json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(selected) == 1 {
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{len(last.Problems) == 0, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// withUnits keeps the metrics the trace mode reports — every one of them,
// a layer the workload bypasses reading 0 — and attaches their units.
func withUnits(m map[string]float64, trace string) map[string]metricValue {
	out := map[string]metricValue{}
	if trace != "1" {
		for _, d := range endToEnd {
			out[d.Name] = metricValue{m[d.Name], d.Unit}
		}
	}
	if trace != "0" {
		for _, d := range perLayer {
			out[d.Name] = metricValue{m[d.Name], d.Unit}
		}
	}
	return out
}

func printWorkload(w workload, r *workloadRecord) {
	fmt.Printf("== %s: attempted %d, failed %d, %d reads and %d writes timed\n", w.Name, r.Attempted, r.Failed, r.Reads, r.Writes)
	row := func(name string) {
		if v, ok := r.Metrics[name]; ok {
			fmt.Printf("   %-32s %14.4f %s\n", name, v.Value, v.Unit)
		}
	}
	for _, d := range endToEnd {
		row(d.Name)
	}
	for _, d := range perLayer {
		row(d.Name)
	}
	for _, p := range r.Problems {
		fmt.Printf("   FAILED CHECK: %s\n", p)
	}
}

func newRecord(o options, workloads map[string]*workloadRecord) *record {
	rec := &record{
		Issue:      12,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Kernel:     vec.Default().Name(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Warmup:     "a fifth of the window, 2 s at most",
		SetupReps:  setupReps,
		Trace:      o.trace,
		Loops:      "readers closed-loop, one statement in flight per connection; churn writer open-loop at 50 stmt/s, timed from each statement's due time",
		FlushPolicy: "the engine's own: WAL buffered and flushed before a dirty page is evicted, pages written at eviction, everything synced at Close; " +
			"one Checkpoint ends set-up of a file-backed workload and none runs inside the window",
		Workloads: workloads,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				rec.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					rec.Commit += "+modified"
				}
			}
		}
	}
	return rec
}

// cpuModel reads the first model name of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
