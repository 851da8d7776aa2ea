package prof

import (
	"bytes"
	"compress/gzip"
	"errors"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var sink uint64

// busy spins for d. It must stay a frame of its own for the test below.
//
//go:noinline
func busy(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// TestSampleFindsBusyFrame spins in busy for 300 ms at a time, again if
// a loaded host gave the process too little CPU for ten samples.
func TestSampleFindsBusyFrame(t *testing.T) {
	var total, inBusy int64
	for try := 0; try < 5 && total < 10; try++ {
		stacks, err := Sample(func() error { busy(300 * time.Millisecond); return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stacks {
			total += st.Count
			for _, f := range st.Frames {
				if f == "vecstudy/internal/prof.busy" {
					inBusy += st.Count
					break
				}
			}
		}
	}
	t.Logf("%d of %d samples in busy", inBusy, total)
	if total < 10 {
		t.Fatalf("only %d samples in 1.5 s of spinning", total)
	}
	if float64(inBusy) < 0.9*float64(total) {
		t.Errorf("%d of %d samples carry busy, want at least 90%%", inBusy, total)
	}
}

func TestSampleReturnsFnError(t *testing.T) {
	want := errors.New("boom")
	if _, err := Sample(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("Sample error = %v, want %v", err, want)
	}
	// The profiler was stopped: a second Sample can start one.
	if _, err := Sample(func() error { return nil }); err != nil {
		t.Errorf("second Sample: %v", err)
	}
}

// recorded returns a real profile of a short spin, gzipped as the
// runtime writes it.
func recorded(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busy(50 * time.Millisecond)
	pprof.StopCPUProfile()
	return buf.Bytes()
}

func gzipped(raw []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

func gunzipped(t *testing.T, gz []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeMalformedIsAnError: every truncation of a real profile, of
// its gzip stream and of the protobuf inside, and a set of corruptions,
// decode to an error or to stacks — never a panic.
func TestDecodeMalformedIsAnError(t *testing.T) {
	gz := recorded(t)
	if _, err := decode(gz); err != nil {
		t.Fatalf("intact profile: %v", err)
	}
	raw := gunzipped(t, gz)
	for n := 0; n < len(gz); n++ {
		if _, err := decode(gz[:n]); err == nil {
			t.Fatalf("gzip stream cut at %d of %d bytes decoded without error", n, len(gz))
		}
	}
	step := max(1, len(raw)/500)
	for n := 0; n < len(raw); n += step {
		decode(gzipped(raw[:n])) // must not panic; a cut on a field boundary is valid
	}
	for i := 0; i < len(raw); i += step {
		for _, b := range []byte{0x00, 0xff, 0x80, 0x07} {
			bad := bytes.Clone(raw)
			bad[i] = b
			decode(gzipped(bad))
		}
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"key cut inside varint", []byte{0x80}, "truncated"},
		{"length past the end", []byte{profileSample<<3 | 2, 5, 1}, "truncated"},
		{"unknown wire type", []byte{profileSample<<3 | 3}, "wire type"},
		{"sample without value", []byte{profileSample<<3 | 2, 2, sampleLocation << 3, 1}, "without a value"},
		{"unknown location", []byte{profileSample<<3 | 2, 4, sampleLocation << 3, 9, sampleValue << 3, 1}, "unknown location"},
		{"varint overflow", append([]byte{profileLocation<<3 | 2, 11, locationID << 3}, bytes.Repeat([]byte{0xff}, 10)...), "truncated"},
		{"function name out of the string table", []byte{
			profileFunction<<3 | 2, 4, functionID << 3, 1, functionName << 3, 3,
			profileLocation<<3 | 2, 6, locationID << 3, 1, locationLine<<3 | 2, 2, lineFunction << 3, 1,
			profileSample<<3 | 2, 4, sampleLocation << 3, 1, sampleValue << 3, 1,
		}, "unknown function"},
	} {
		_, err := decode(gzipped(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := decode([]byte("not gzip")); err == nil {
		t.Error("a stream that is not gzip decoded")
	}
}

// TestDecodeReadsInlinedLinesAndPackedFields decodes a hand-built
// profile: a location with an inlined callee, a packed and an unpacked
// location list, and a sample count taken from the first value.
func TestDecodeReadsInlinedLinesAndPackedFields(t *testing.T) {
	str := func(s string) []byte { return append([]byte{profileString<<3 | 2, byte(len(s))}, s...) }
	var raw []byte
	for _, s := range []string{"", "outer", "inlined", "leaf"} {
		raw = append(raw, str(s)...)
	}
	raw = append(raw,
		profileFunction<<3|2, 4, functionID<<3, 1, functionName<<3, 1,
		profileFunction<<3|2, 4, functionID<<3, 2, functionName<<3, 2,
		profileFunction<<3|2, 4, functionID<<3, 3, functionName<<3, 3,
		// location 1: inlined (fn 2) into outer (fn 1), innermost first
		profileLocation<<3|2, 10, locationID<<3, 1, locationLine<<3|2, 2, lineFunction<<3, 2, locationLine<<3|2, 2, lineFunction<<3, 1,
		profileLocation<<3|2, 6, locationID<<3, 2, locationLine<<3|2, 2, lineFunction<<3, 3,
		// packed locations [2 1], values [3 246656]
		profileSample<<3|2, 10, sampleLocation<<3|2, 2, 2, 1, sampleValue<<3|2, 4, 3, 0x80, 0x87, 0x0f,
		// unpacked location 1, value 1
		profileSample<<3|2, 4, sampleLocation<<3, 1, sampleValue<<3, 1,
	)
	stacks, err := decode(gzipped(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := []Stack{
		{Frames: []string{"leaf", "inlined", "outer"}, Count: 3},
		{Frames: []string{"inlined", "outer"}, Count: 1},
	}
	if len(stacks) != len(want) {
		t.Fatalf("stacks = %v, want %v", stacks, want)
	}
	for i := range want {
		if strings.Join(stacks[i].Frames, ",") != strings.Join(want[i].Frames, ",") || stacks[i].Count != want[i].Count {
			t.Errorf("stack %d = %v, want %v", i, stacks[i], want[i])
		}
	}
}
