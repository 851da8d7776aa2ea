package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"
)

// gate pins, per layout, what a build and a scan cost the buffer pool —
// pins (hits + misses) for the build of 3,000 × 32 rows at bnn 8, efb
// 40, seed 1, and for 100 scans at k 10, efs 40 — plus an FNV-1a digest
// of every vertex's adjacency lists, and the allocations of one scan.
// Pins and the digest are exact: a refactor of the walk must reproduce
// both, or it changed which pages are read or which graph is built. The
// allocation figures are ceilings (923 per scan before the two engines
// shared one walk). Re-record only for a deliberate change of the access
// pattern, and say so in CHANGES.md.
var gate = map[bool]struct {
	buildPins, scanPins int64
	adjacency           uint64
	scanAllocs          float64
}{
	false: {3425885, 65423, 0x572bbb64d1282d8, 698},
	true:  {3428884, 65423, 0x572bbb64d1282d8, 698},
}

func TestPinsAndAdjacencyGate(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other targets may fuse multiply-adds")
	}
	if testutil.Race && testing.Short() {
		// One goroutine and exact counts: the race detector adds nothing
		// here but a minute of builds. The plain and the full race runs
		// keep the gate.
		t.Skip("single-goroutine exact gate; runs without -short or -race")
	}
	fx := testutil.NewAMFixture(t, 3000, 8192, 8192)
	queries := testutil.Queries(31, 100)
	opts := testutil.ScanOpts(t, map[string]string{"distance_kernel": "unrolled", "efs": "40"})
	pins := func() int64 { st := fx.Pool.Stats(); return st.Hits + st.Misses }
	for _, packed := range []bool{false, true} {
		want := gate[packed]
		before := pins()
		ix := buildHNSW(t, fx, packed)
		buildPins := pins() - before

		before = pins()
		for _, q := range queries {
			testutil.MustScan(t, ix, []am.Query{{Vec: q, K: 10}}, opts)
		}
		scanPins := pins() - before
		adjacency := adjacencyDigest(t, fx, ix)
		t.Logf("packed=%v: build pins %d, scan pins %d, adjacency %#x", packed, buildPins, scanPins, adjacency)
		if buildPins != want.buildPins || scanPins != want.scanPins {
			t.Errorf("packed=%v: pins build %d scan %d, recorded %d and %d", packed, buildPins, scanPins, want.buildPins, want.scanPins)
		}
		if adjacency != want.adjacency {
			t.Errorf("packed=%v: adjacency digest %#x, recorded %#x", packed, adjacency, want.adjacency)
		}

		if testutil.Race {
			continue // the race runtime allocates on its own
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			testutil.MustScan(t, ix, []am.Query{{Vec: queries[i%len(queries)], K: 10}}, opts)
			i++
		})
		t.Logf("packed=%v: %.0f allocations per scan", packed, allocs)
		if allocs > want.scanAllocs {
			t.Errorf("packed=%v: %.0f allocations per scan, ceiling %.0f", packed, allocs, want.scanAllocs)
		}
	}
}

// adjacencyDigest folds every vertex's lists into one FNV-1a digest: per
// vertex in row order, its top level, then per level the rows its used
// slots point at, in slot order.
func adjacencyDigest(t *testing.T, fx *testutil.AMFixture, ix *Index) uint64 {
	t.Helper()
	rowOf := make(map[uint64]int, len(ix.tids))
	for tid, v := range ix.tids {
		rowOf[v.key()] = fx.Row[tid]
	}
	h := fnv.New64a()
	var b [4]byte
	word := func(x int) { binary.LittleEndian.PutUint32(b[:], uint32(x)); h.Write(b[:]) }
	for row, tid := range fx.TIDs {
		v := ix.tids[tid]
		_, level, _, err := ix.entryState(v)
		if err != nil {
			t.Fatal(err)
		}
		word(row)
		word(int(level))
		for lev := uint16(0); lev <= level; lev++ {
			nbs, err := ix.neighborsAt(v, lev, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range nbs {
				word(int(lev))
				word(rowOf[nb.key()])
			}
		}
	}
	return h.Sum64()
}
