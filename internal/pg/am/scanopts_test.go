package am

import (
	"strings"
	"testing"

	"vecstudy/internal/vec"
)

// TestScanOptsParser pins the one knob parser: every knob round-trips
// through Set and Get, a value the knob cannot take fails with one error
// shape and leaves the options untouched, and a name that is not a scan
// knob is reported unknown rather than failed.
func TestScanOptsParser(t *testing.T) {
	// A fresh session is served on the fast side of RC#6 and RC#1/RC#5:
	// the size-k heap and the best kernel the host registered.
	want := map[string]string{
		"nprobe": "20", "efs": "200", "threads": "1", "sq8_rerank": "4", "heap": "k",
		"distance_kernel": vec.RegisteredKernelNames()[0],
	}
	o := DefaultScanOpts()
	for name, def := range want {
		if got, known := o.Get(name); !known || got != def {
			t.Errorf("default %s = (%q, %v), want %q", name, got, known, def)
		}
	}
	if known, err := o.Set("heap", "n"); !known || err != nil || o.HeapK {
		t.Fatalf("Set(heap, n) = (%v, %v), HeapK = %v: the paper position must stay reachable", known, err, o.HeapK)
	}
	for _, tc := range []struct{ name, value string }{
		{"nprobe", "7"}, {"efs", "64"}, {"threads", "4"}, {"sq8_rerank", "64"}, {"heap", "k"}, {"distance_kernel", "ref"},
	} {
		if known, err := o.Set(tc.name, tc.value); !known || err != nil {
			t.Fatalf("Set(%s, %s) = (%v, %v)", tc.name, tc.value, known, err)
		}
		if got, _ := o.Get(tc.name); got != tc.value {
			t.Errorf("Get(%s) after Set = %q, want %q", tc.name, got, tc.value)
		}
	}
	if *o != (ScanOpts{NProbe: 7, EFS: 64, Threads: 4, Rerank: 64, HeapK: true, Kernel: vec.Ref()}) {
		t.Errorf("typed fields after Set = %+v", *o)
	}

	before := *o
	for _, tc := range []struct{ name, value string }{
		{"nprobe", "abc"}, {"nprobe", "0"}, {"nprobe", "2.5"}, {"efs", "x"}, {"efs", "-1"}, {"threads", "-3"},
		{"sq8_rerank", "0"}, {"sq8_rerank", "65"}, {"heap", "foo"}, {"heap", ""}, {"distance_kernel", "simd512"},
	} {
		known, err := o.Set(tc.name, tc.value)
		if !known || err == nil || !strings.HasPrefix(err.Error(), "am: "+tc.name+" = ") {
			t.Errorf("Set(%s, %q) = (%v, %v), want a known knob's \"am: %s = …\" error", tc.name, tc.value, known, err, tc.name)
		}
	}
	if *o != before {
		t.Errorf("rejected values changed the options: %+v, were %+v", *o, before)
	}
	if known, err := o.Set("batch_max", "many"); known || err != nil {
		t.Errorf("Set of a non-scan knob = (%v, %v), want (false, nil)", known, err)
	}
	if _, known := o.Get("batch_max"); known {
		t.Error("Get of a non-scan knob reported known")
	}
}
