package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestContract holds BENCHMARK.json at the root to the registry in this
// binary — same workloads, metrics, units and bounds — and the registry to
// the limits of the driver's contract.
func TestContract(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with: bash benchmark/run.sh -contract > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, d := range endToEnd {
		name("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		setup = setup || d == endToEndDef{"setup_s", "s", lower, d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range perLayer {
		name("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}
}

// TestSmoke runs every workload end to end at a tenth of its size with
// 0.3 s windows: set-up, window, output checks, traced pass, direct calls.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	o := options{seed: 3, seconds: 0.3, rows: fullRows / 10, trace: "both", work: t.TempDir(), out: out}
	for _, w := range workloads {
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || len(res.Problems) != 0 {
			t.Errorf("%s: %d of %d statements failed, problems %q", w.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, d.Name, v)
			}
		}
		registered := withUnits(res.Metrics, "both")
		for name, v := range res.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v)
			}
			if _, ok := registered[name]; !ok {
				t.Errorf("%s: metric %s is measured but not in the registry", w.Name, name)
			}
		}
		for _, name := range []string{"sql.run_us", "am.search_us", "buffer.pins_per_query", "client.ping_us", "heap.decode_ns"} {
			if !(res.Metrics[name] > 0) {
				t.Errorf("%s: per-layer metric %s = %v, want it measured", w.Name, name, res.Metrics[name])
			}
		}
		if w.writer && (res.Writes == 0 || !(res.Metrics["db.reopen_ms"] > 0) || res.Metrics["db.reopen_mismatch_rows"] != 0) {
			t.Errorf("%s: %d writes, reopen %v ms, %v rows mismatched", w.Name, res.Writes, res.Metrics["db.reopen_ms"], res.Metrics["db.reopen_mismatch_rows"])
		}
		spans, err := os.ReadFile(filepath.Join(out, "trace_"+w.Name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var first span
		if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil || first.Name != rootSpan || first.End <= first.Start {
			t.Errorf("%s: first span %+v (%v), want a timed %s", w.Name, first, err, rootSpan)
		}
	}
}

// TestCompare checks the verdicts of -compare and that its quartiles are
// the ones Python's statistics.quantiles(values, n=4) gives.
func TestCompare(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
	dir := t.TempDir()
	write := func(name string, qps, p50 float64) string {
		rec := record{Workloads: map[string]*workloadRecord{"ivf_solo": {Metrics: map[string]metricValue{
			"qps": {qps, "1/s"}, "p50_ms": {p50, "ms"}, "fail_share": {0, "ratio"},
		}}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []string{write("a1.json", 1000, 1.00), write("a2.json", 1010, 1.01)}
	for _, tc := range []struct {
		name     string
		qps, p50 float64
		worse    bool
		verdict  string
	}{
		{"same", 1005, 1.0, false, "ok"},
		{"slower", 600, 1.6, true, "worse"},
		{"faster", 1500, 0.7, false, "ok"},
	} {
		var out bytes.Buffer
		worse, err := compareRecords(&out, base, []string{write(tc.name+".json", tc.qps, tc.p50)})
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse = %v, want %v, and a %q row in:\n%s", tc.name, worse, tc.worse, tc.verdict, out.String())
		}
	}
	var out bytes.Buffer
	noisy := []string{write("n1.json", 600, 1.0), write("n2.json", 1400, 1.0)}
	if worse, err := compareRecords(&out, base, noisy); err != nil || worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not worse (worse=%v, err=%v):\n%s", worse, err, out.String())
	}
}
