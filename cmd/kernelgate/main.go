// Command kernelgate is the CI microbench gate for the distance-kernel
// layer: it re-times the BenchmarkKernel* shapes in-process with
// testing.Benchmark and fails if the default kernel's speedup over the
// ref kernel has regressed against the checked-in baseline.
//
// The baseline stores RATIOS (ref ns/op divided by default ns/op per
// shape), not absolute times: absolute ns/op differ across CI hosts,
// but how much faster the unrolled/avx2 kernel is than the scalar
// reference on the same machine in the same run is stable. A refactor
// that quietly de-vectorizes a loop shows up as a ratio collapse no
// matter which runner picked up the job.
//
// Usage:
//
//	go run ./cmd/kernelgate                # gate against the baseline
//	go run ./cmd/kernelgate -update       # re-measure and rewrite it
//	go run ./cmd/kernelgate -margin 0.4   # loosen the tolerance
//
// The gate passes while measured >= baseline * (1 - margin) for every
// shape. Faster-than-baseline runs pass silently; refresh the baseline
// with -update after intentional kernel work (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"vecstudy/internal/vec"
)

// shape is one gated benchmark: a name (the baseline key) and a closure
// that runs the hot loop for a given kernel.
type shape struct {
	name string
	run  func(k vec.Kernel, b *testing.B)
}

func randVecs(n, d int) []float32 {
	rng := rand.New(rand.NewSource(9))
	out := make([]float32, n*d)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// shapes mirrors internal/vec's BenchmarkKernel* surface: solo and
// batch distance shapes at a cache-resident and a larger dimension,
// the page-segment shape the flat scan scores with, and the SQ8
// asymmetric forms — solo, page-batch, and the decomposed scan's uint8
// dot product.
func shapes() []shape {
	var out []shape
	for _, d := range []int{128, 960} {
		d := d
		out = append(out, shape{
			name: fmt.Sprintf("solo/d=%d", d),
			run: func(k vec.Kernel, b *testing.B) {
				x, y := randVecs(1, d), randVecs(1, d)
				var sink float32
				for i := 0; i < b.N; i++ {
					sink += k.L2Sqr(x, y)
				}
				_ = sink
			},
		})
		out = append(out, shape{
			name: fmt.Sprintf("rows/d=%d", d),
			run: func(k vec.Kernel, b *testing.B) {
				const n = 256
				flat := randVecs(n, d)
				rows := make([][]float32, n)
				for i := range rows {
					rows[i] = flat[i*d : (i+1)*d]
				}
				q := randVecs(1, d)
				dst := make([]float32, n)
				for i := 0; i < b.N; i++ {
					k.L2SqrBatch(q, rows, dst)
				}
			},
		})
	}
	// The flat scan's call: one 8 KiB index page of tuple rows against
	// the queries subscribed to the bucket (one solo, two coalesced).
	for _, n := range []int{1, 2} {
		n := n
		out = append(out, shape{
			name: fmt.Sprintf("ntrows/m=15,n=%d,d=128", n),
			run: func(k vec.Kernel, b *testing.B) {
				const m, d = 15, 128
				flat := randVecs(m, d)
				rows := make([][]float32, m)
				for i := range rows {
					rows[i] = flat[i*d : (i+1)*d]
				}
				qs := randVecs(n, d)
				dst := make([]float32, m*n)
				for i := 0; i < b.N; i++ {
					k.L2SqrNTRows(rows, d, qs, n, dst)
				}
			},
		})
	}
	out = append(out, shape{
		name: "sq8/d=128",
		run: func(k vec.Kernel, b *testing.B) {
			const d = 128
			tr := vec.NewSQ8Trainer(d)
			rows := randVecs(64, d)
			for i := 0; i < 64; i++ {
				tr.Observe(rows[i*d : (i+1)*d])
			}
			sq := tr.Finish()
			code := make([]byte, d)
			sq.Encode(rows[:d], code)
			q := randVecs(1, d)
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += k.L2SqrSQ8(q, code, sq)
			}
			_ = sink
		},
	})
	out = append(out, shape{
		name: "sq8batch/d=128",
		run: func(k vec.Kernel, b *testing.B) {
			const d, n = 128, 256
			tr := vec.NewSQ8Trainer(d)
			rows := randVecs(n, d)
			for i := 0; i < n; i++ {
				tr.Observe(rows[i*d : (i+1)*d])
			}
			sq := tr.Finish()
			codes := make([][]byte, n)
			for i := range codes {
				codes[i] = make([]byte, d)
				sq.Encode(rows[i*d:(i+1)*d], codes[i])
			}
			q := randVecs(1, d)
			dst := make([]float32, n)
			for i := 0; i < b.N; i++ {
				k.L2SqrSQ8Batch(q, codes, sq, dst)
			}
		},
	})
	out = append(out, shape{
		name: "dotsq8/d=128",
		run: func(k vec.Kernel, b *testing.B) {
			const d, n = 128, 256
			w := randVecs(1, d)
			codes := make([][]byte, n)
			rng := rand.New(rand.NewSource(11))
			for i := range codes {
				codes[i] = make([]byte, d)
				rng.Read(codes[i])
			}
			dst := make([]float32, n)
			for i := 0; i < b.N; i++ {
				k.DotSQ8Batch(w, codes, dst)
			}
		},
	})
	return out
}

// measure times one shape for one kernel and returns the best ns/op of
// three repetitions — the minimum is the noise-robust estimator for a
// deterministic hot loop (interference only ever slows a rep down).
func measure(s shape, k vec.Kernel) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		res := testing.Benchmark(func(b *testing.B) { s.run(k, b) })
		// Fractional ns/op: NsPerOp truncates to integer nanoseconds,
		// which alone is a 8% quantization error on a 12 ns kernel.
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func main() {
	baselinePath := flag.String("baseline", "cmd/kernelgate/baseline.json", "ratio baseline file")
	update := flag.Bool("update", false, "re-measure and rewrite the baseline instead of gating")
	// The margin tolerates shared-runner noise, not regressions: the
	// failure mode this gate exists for — a refactor that quietly
	// de-vectorizes a kernel — collapses a 6x ratio toward 1x, far past
	// any plausible noise band.
	margin := flag.Float64("margin", 0.25, "allowed fractional regression below the baseline ratio")
	flag.Parse()

	ref := vec.Ref()
	fmt.Printf("kernelgate: registered kernels: %v (default %s)\n",
		vec.RegisteredKernelNames(), vec.Default().Name())

	// Every registered accelerated kernel is gated against ref measured
	// in the same run; keys are "<kernel>/<shape>".
	ratios := map[string]float64{}
	for _, s := range shapes() {
		refNs := measure(s, ref)
		for _, name := range vec.RegisteredKernelNames() {
			if name == ref.Name() {
				continue
			}
			k, err := vec.ForName(name)
			if err != nil {
				fatal(err)
			}
			kNs := measure(s, k)
			r := refNs / kNs
			ratios[name+"/"+s.name] = r
			fmt.Printf("  %-28s ref %10.1f ns/op   %-8s %10.1f ns/op   ratio %.2fx\n",
				name+"/"+s.name, refNs, name, kNs, r)
		}
	}

	if *update {
		data, err := json.MarshalIndent(ratios, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("kernelgate: baseline written to %s\n", *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("%w (run with -update to create the baseline)", err))
	}
	baseline := map[string]float64{}
	if err := json.Unmarshal(data, &baseline); err != nil {
		fatal(err)
	}

	var names []string
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	registered := map[string]bool{}
	for _, k := range vec.RegisteredKernelNames() {
		registered[k] = true
	}
	failed := 0
	for _, name := range names {
		want := baseline[name] * (1 - *margin)
		got, ok := ratios[name]
		if !ok {
			// A baseline row for a kernel this host cannot register
			// (avx2 on a non-AVX2 runner) is skipped, not failed.
			if i := strings.IndexByte(name, '/'); i > 0 && !registered[name[:i]] {
				fmt.Printf("kernelgate: skip %s: kernel not registered on this host\n", name)
				continue
			}
			fmt.Printf("kernelgate: FAIL %s: shape missing from this build\n", name)
			failed++
			continue
		}
		if got < want {
			fmt.Printf("kernelgate: FAIL %s: ratio %.2fx < %.2fx (baseline %.2fx - %d%% margin)\n",
				name, got, want, baseline[name], int(*margin*100))
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "kernelgate: %d shape(s) regressed\n", failed)
		os.Exit(1)
	}
	fmt.Println("kernelgate: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kernelgate:", err)
	os.Exit(1)
}
