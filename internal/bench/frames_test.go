package bench

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vecstudy/internal/core"
	"vecstudy/internal/prof"
)

const (
	walker    = "vecstudy/internal/hnswalk.(*Walker[go.shape.int32])."
	paseGraph = "vecstudy/internal/pase/hnsw.(*graph)."
	paseIndex = "vecstudy/internal/pase/hnsw.(*Index)."
)

// TestClassifySharesAndOthers pins the reading of the frame table on
// hand-built stacks, innermost frame first.
func TestClassifySharesAndOthers(t *testing.T) {
	pasePin := []string{"runtime.mapaccess2_fast64", "vecstudy/internal/pg/buffer.(*Pool).Pin", paseIndex + "withVector", paseIndex + "distTo", paseGraph + "Expand"}
	link := []string{walker + "Link", "vecstudy/internal/pase/hnsw.(*Index).insertLocked", "vecstudy/internal/pg/heap.(*Table).Scan"}
	under := func(phase string, inner ...string) []string {
		return append(append(inner, walker+phase), link...)
	}
	for _, tc := range []struct {
		name        string
		stack       []string
		phase, part string
	}{
		{"kernel in the beam", under("search", "vecstudy/internal/vec.refKernel.L2Sqr", paseIndex+"distTo.func1", paseIndex+"withVector", paseIndex+"distTo", paseGraph+"Expand"), "SearchNbToAdd", partDist},
		{"generic shape stripped", under("search", "vecstudy/internal/hnswalk.(*candQueue[go.shape.struct { NbBlk uint32; X [2]uint8 }]).push"), "SearchNbToAdd", ""},
		{"visited map under Expand", under("search", "internal/runtime/maps.h2", "runtime.mapaccess2_fast64", paseGraph+"Expand"), "SearchNbToAdd", partHVT},
		{"visited insert under Expand", under("search", "runtime.mapassign_fast64", paseGraph+"Expand"), "SearchNbToAdd", partHVT},
		{"pool hash is tuple access", under("search", pasePin...), "SearchNbToAdd", partTuple},
		{"slot walk", under("search", "vecstudy/internal/pg/buffer.(*Pool).Pin", paseIndex+"eachSlot", paseIndex+"neighborsAt", paseGraph+"Expand"), "SearchNbToAdd", partNbList},
		{"faiss epoch check", under("search", "vecstudy/internal/faiss/hnsw.(*graph).Expand"), "SearchNbToAdd", partVisited},
		{"part not read above the phase", under("search"), "SearchNbToAdd", ""},
		{"shrink", under("shrink", "vecstudy/internal/vec.refKernel.L2Sqr", walker+"selectNeighbors", walker+"Relink"), "ShrinkNbList", partDist},
		{"select", under("selectNeighbors"), "ShrinkNbList", ""},
		{"greedy", under("greedy"), "GreedyUpdate", ""},
		{"add link", append([]string{paseIndex + "eachSlot", paseGraph + "AddLink"}, link...), "AddLink", ""},
		{"Link's own work", link, "", ""},
		{"outside Link", []string{"vecstudy/internal/pg/heap.(*Table).Scan", "vecstudy/internal/pase/hnsw.Build"}, "", partTuple},
		{"search heap", []string{"vecstudy/internal/minheap.(*Collector).Push", "vecstudy/internal/pase/ivf.(*sink).push", "vecstudy/internal/pase/ivf.(*scanner).segment", "vecstudy/internal/pase/ivf.(*Index).walk"}, "", partHeap},
		{"GC worker", []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "", ""},
	} {
		phase, part := classify(tc.stack)
		if phase != tc.phase || part != tc.part {
			t.Errorf("%s: classify = (%q, %q), want (%q, %q)", tc.name, phase, part, tc.phase, tc.part)
		}
	}

	b := tally([]prof.Stack{
		{Frames: under("search", "vecstudy/internal/vec.refKernel.L2Sqr"), Count: 6},
		{Frames: under("search", "runtime.mapassign_fast64", paseGraph+"Expand"), Count: 2},
		{Frames: under("search"), Count: 2},
		{Frames: under("shrink"), Count: 5},
		{Frames: link, Count: 1},
	})
	if b.total != 16 || b.phases["SearchNbToAdd"] != 10 || b.phases["ShrinkNbList"] != 5 || b.phases[""] != 1 {
		t.Errorf("tally = %+v", b)
	}
	if got := b.parts["SearchNbToAdd"]; got[partDist] != 6 || got[partHVT] != 2 || got[""] != 2 {
		t.Errorf("SearchNbToAdd parts = %v", got)
	}
	var buf strings.Builder
	(&Config{Out: &buf}).printShares(b.parts["SearchNbToAdd"], []string{partDist, partHVT}, b.phases["SearchNbToAdd"])
	for _, want := range []string{"fvec_L2sqr        60.00% ±30.36  (n=6/10)", "HVTGet            20.00% ±24.79  (n=2/10)", "others            20.00% ±24.79  (n=2/10)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printShares output lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestFrameTableNamesLiveFunctions: every function the table names is a
// function of this binary, which links every engine, so a renamed method
// fails here instead of moving its samples to "others". The names come
// from the binary's pclntab, which go test keeps when it strips the
// symbol table.
func TestFrameTableNamesLiveFunctions(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Skipf("not an ELF binary: %v", err)
	}
	defer f.Close()
	pcln, text := f.Section(".gopclntab"), f.Section(".text")
	if pcln == nil || text == nil {
		t.Skip("no .gopclntab or .text section")
	}
	data, err := pcln.Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, fn := range tab.Funcs {
		live[stripTypeArgs(fn.Name)] = true
	}
	if len(live) < 1000 {
		t.Fatalf("read only %d functions from the pclntab", len(live))
	}
	names := []string{linkFrame}
	for _, fr := range frames {
		names = append(names, fr.name)
		if fr.under != "" {
			names = append(names, fr.under)
		}
	}
	for _, name := range names {
		found := live[name]
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			for sym := range live {
				if strings.HasPrefix(sym, prefix) {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("frame table names %s, which is no function of this binary", name)
		}
	}
}

// TestTab3SampledPhaseOrder repeats a Faiss HNSW build until Link's four
// phases hold 200 samples, then checks Table III's order.
func TestTab3SampledPhaseOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("samples several HNSW builds")
	}
	ds, err := smokeConfig(nil).Dataset("sift1m", 10)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int64{}
	var inLink int64
	for builds := 0; inLink < 200; builds++ {
		if builds == 100 {
			t.Fatalf("%d builds gave Link only %d samples", builds, inLink)
		}
		b, _, err := sampleHNSWBuild(ds, core.Specialized)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tab3Phases {
			phases[p] += b.phases[p]
			inLink += b.phases[p]
		}
	}
	t.Logf("phase samples: %v", phases)
	if phases["SearchNbToAdd"] <= phases["AddLink"] {
		t.Errorf("SearchNbToAdd %d samples, AddLink %d: want SearchNbToAdd ahead", phases["SearchNbToAdd"], phases["AddLink"])
	}
	for _, p := range []string{"SearchNbToAdd", "ShrinkNbList"} {
		if phases[p] == 0 {
			t.Errorf("%s drew no samples", p)
		}
	}
}

var shareRowRE = regexp.MustCompile(`^  (\S+)\s+(\d+\.\d+)% ±\s*\d+\.\d+  \(n=(\d+)/(\d+)\)$`)

// checkShares asserts the shape of a breakdown driver's output: each
// header is followed by share rows that carry n=k/N, whose counts sum to
// N with "others" last, so the named parts hold at most all of it.
func checkShares(t *testing.T, out string) {
	t.Helper()
	blocks := 0
	var sum, n int64
	var inBlock bool
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			m := shareRowRE.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("row without a share and n=: %q", line)
				continue
			}
			k, _ := strconv.ParseInt(m[3], 10, 64)
			rowN, _ := strconv.ParseInt(m[4], 10, 64)
			if !inBlock {
				inBlock, blocks, sum, n = true, blocks+1, 0, rowN
			}
			if rowN != n {
				t.Errorf("row %q: n=%d, block's is %d", line, rowN, n)
			}
			sum += k
			if m[1] == "others" && sum != n {
				t.Errorf("block ending %q sums to %d of %d samples", line, sum, n)
			}
			if sum > n {
				t.Errorf("parts through %q hold %d of %d samples", line, sum, n)
			}
			continue
		}
		inBlock = false
	}
	if blocks != 2 {
		t.Errorf("%d share blocks, want one per engine:\n%s", blocks, out)
	}
}
