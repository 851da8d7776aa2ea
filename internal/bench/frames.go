package bench

import (
	"fmt"
	"math"
	"strings"

	"vecstudy/internal/prof"
)

// The breakdown experiments (tab3, fig8, tab5) read CPU samples the way
// the paper reads Perf: by the functions on each sample's stack. frames is
// the one place that names those functions; the engines carry no
// instrumentation.
//
// A sample's phase is Table III's: the phase of the frame called directly
// from linkFrame, or "" for a sample outside Link (a search, or the build
// work around the inserts). Its part is that of the innermost frame the
// table gives one, looked for below the phase frame (in the whole stack
// for a sample outside Link), so a sample has at most one part and a
// phase's parts sum to at most its samples.

// linkFrame is the insert whose direct callees are Table III's phases.
const linkFrame = "vecstudy/internal/hnswalk.(*Walker).Link"

// engineFrames prefixes the functions of this module: the "nearest engine
// frame" of a runtime frame is the first outward whose name has it.
const engineFrames = "vecstudy/"

// frame names one function of the table.
type frame struct {
	// name is the function's name with type arguments stripped, as
	// stripTypeArgs leaves it; a trailing * matches any rest.
	name string
	// phase is the Table III phase of a call to it directly from Link.
	phase string
	// part is the Fig 8 or Table V part of a sample whose innermost named
	// frame it is.
	part string
	// under, when set, restricts part to frames whose nearest engine frame
	// outward is under.
	under string
}

// The Fig 8 / Table V parts.
const (
	partDist    = "fvec_L2sqr"
	partTuple   = "tuple_access"
	partHeap    = "min-heap"
	partVisited = "visited-check"
	partHVT     = "HVTGet"
	partNbList  = "pasepfirst"
)

var frames = []frame{
	// Table III's phases: the calls Link makes.
	{name: "vecstudy/internal/hnswalk.(*Walker).greedy", phase: "GreedyUpdate"},
	{name: "vecstudy/internal/hnswalk.(*Walker).search", phase: "SearchNbToAdd"},
	{name: "vecstudy/internal/hnswalk.(*Walker).selectNeighbors", phase: "ShrinkNbList"},
	{name: "vecstudy/internal/hnswalk.(*Walker).shrink", phase: "ShrinkNbList"},
	{name: "vecstudy/internal/faiss/hnsw.(*graph).AddLink", phase: "AddLink"},
	{name: "vecstudy/internal/pase/hnsw.(*graph).AddLink", phase: "AddLink"},

	// Distance: the kernel package, whichever kernel runs.
	{name: "vecstudy/internal/vec.*", part: partDist},
	// Faiss's epoch-stamped visited check is inline in Expand: Expand's
	// own samples (the check, and the loop and append around it).
	{name: "vecstudy/internal/faiss/hnsw.(*graph).Expand", part: partVisited},
	// PASE's visited set is a Go map read and written inline in Expand;
	// the buffer pool hashes too, so only map frames straight under
	// Expand are HVTGet.
	{name: "runtime.mapaccess*", part: partHVT, under: "vecstudy/internal/pase/hnsw.(*graph).Expand"},
	{name: "runtime.mapassign*", part: partHVT, under: "vecstudy/internal/pase/hnsw.(*graph).Expand"},
	// PASE's adjacency slot walk over the neighbour pages.
	{name: "vecstudy/internal/pase/hnsw.(*Index).neighborsAt", part: partNbList},
	// Tuple access: a vertex's data entry, a bucket chain's pages, a heap
	// tuple.
	{name: "vecstudy/internal/pase/hnsw.(*Index).withVector", part: partTuple},
	{name: "vecstudy/internal/pase/hnsw.(*Index).entryState", part: partTuple},
	{name: "vecstudy/internal/pase/ivf.(*Index).walk", part: partTuple},
	{name: "vecstudy/internal/pg/heap.*", part: partTuple},
	// The top-k heaps and collectors, and PASE's candidate routing.
	{name: "vecstudy/internal/minheap.*", part: partHeap},
	{name: "vecstudy/internal/pase/ivf.(*sink).push", part: partHeap},
	{name: "vecstudy/internal/pase/ivf.(*sink).results", part: partHeap},
}

// lookup returns the table's entry for the stripped function name fn.
func lookup(fn string) (frame, bool) {
	for _, f := range frames {
		if f.name == fn || strings.HasSuffix(f.name, "*") && strings.HasPrefix(fn, f.name[:len(f.name)-1]) {
			return f, true
		}
	}
	return frame{}, false
}

// stripTypeArgs drops every bracketed type-argument list from a function
// name: "p.(*Walker[go.shape.int32]).search" becomes "p.(*Walker).search".
func stripTypeArgs(fn string) string {
	if !strings.Contains(fn, "[") {
		return fn
	}
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// classify reads one stack, innermost frame first, into its phase and
// part ("" for none).
func classify(stack []string) (phase, part string) {
	names := make([]string, len(stack))
	for i, fn := range stack {
		names[i] = stripTypeArgs(fn)
	}
	below := len(names)
	for i, fn := range names {
		if fn == linkFrame {
			below = i
			if i > 0 {
				f, _ := lookup(names[i-1])
				phase = f.phase
			}
			break
		}
	}
	for i := 0; i < below; i++ {
		f, ok := lookup(names[i])
		if !ok || f.part == "" {
			continue
		}
		if f.under != "" && nearestEngine(names[i+1:]) != f.under {
			continue
		}
		return phase, f.part
	}
	return phase, ""
}

func nearestEngine(names []string) string {
	for _, fn := range names {
		if strings.HasPrefix(fn, engineFrames) {
			return fn
		}
	}
	return ""
}

// breakdown counts a profile's samples by phase and by part within each
// phase.
type breakdown struct {
	total  int64
	phases map[string]int64
	parts  map[string]map[string]int64 // phase → part → samples
}

func tally(stacks []prof.Stack) breakdown {
	b := breakdown{phases: map[string]int64{}, parts: map[string]map[string]int64{}}
	for _, st := range stacks {
		phase, part := classify(st.Frames)
		b.total += st.Count
		b.phases[phase] += st.Count
		if b.parts[phase] == nil {
			b.parts[phase] = map[string]int64{}
		}
		b.parts[phase][part] += st.Count
	}
	return b
}

// printShares prints one row per name in order, and an "others" row for
// the rest of the n samples, each as a share of n with its sample count
// and its 95% Wilson interval.
func (cfg *Config) printShares(counts map[string]int64, order []string, n int64) {
	rest := n
	for _, name := range order {
		cfg.printf("  %s\n", shareRow(name, counts[name], n))
		rest -= counts[name]
	}
	cfg.printf("  %s\n", shareRow("others", rest, n))
}

// shareRow renders k of n samples as a percentage with its 95% Wilson
// interval.
func shareRow(name string, k, n int64) string {
	var p float64
	if n > 0 {
		p = float64(k) / float64(n)
	}
	lo, hi := wilson(k, n)
	return fmt.Sprintf("%-16s %6.2f%% [%5.2f, %6.2f]  (n=%d/%d)", name, 100*p, 100*lo, 100*hi, k, n)
}

// wilson is the 95% Wilson score interval of a binomial share k/n. Unlike
// the normal approximation's ±1.96·√(p(1−p)/n), it does not collapse to
// zero width at k = 0 or k = n, where a phase that drew no sample may
// still hold a few percent of the time. n = 0 says nothing: [0, 1].
func wilson(k, n int64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	const z = 1.96
	nf := float64(n)
	p := float64(k) / nf
	d := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / d
	half := z / d * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return math.Max(0, center-half), math.Min(1, center+half)
}
