package am

import (
	"fmt"
	"strconv"
	"strings"

	"vecstudy/internal/vec"
)

// ScanOpts are the scan-time knobs of one Scan call, already parsed: a
// session fills one at SET time (PASE exposes the same knobs as GUCs)
// and every scan reads the typed fields. Build one from
// DefaultScanOpts() — the zero value is not a usable set of options.
type ScanOpts struct {
	NProbe  int        // nprobe — ivf: buckets probed per query; a scan clamps it to [1, nlist]
	EFS     int        // efs — hnsw: search queue length; a scan raises it to k
	Threads int        // threads — > 1 selects the RC#3 shared-heap parallel bucket scan
	Rerank  int        // sq8_rerank — ivfsq8: k·β quantized candidates are re-ranked at full precision
	HeapK   bool       // heap = k — bounded size-k heap; heap = n is PASE's size-n collector (RC#6)
	Kernel  vec.Kernel // distance_kernel — scores every search-path candidate
}

// DefaultScanOpts returns the options of a fresh session. It is the one
// place the scan defaults are written: SHOW ALL prints from it and a nil
// *ScanOpts means it. A session is served on the fast side of the
// paper's findings — the size-k heap and the best kernel the host has;
// SET heap = n and SET distance_kernel reach the paper's positions.
func DefaultScanOpts() *ScanOpts {
	return &ScanOpts{NProbe: 20, EFS: 200, Threads: 1, Rerank: 4, HeapK: true, Kernel: vec.Default()}
}

// Set parses value into the field the knob name stands for — the one
// name,value → field parser, shared by SET, sql.ValidateSetting and the
// Search(map) shim. known is false when name is not a scan knob; a value
// the knob cannot take is an error and leaves o unchanged.
func (o *ScanOpts) Set(name, value string) (known bool, err error) {
	switch name {
	case "nprobe":
		err = setInt(&o.NProbe, name, value, 0)
	case "efs":
		err = setInt(&o.EFS, name, value, 0)
	case "threads":
		err = setInt(&o.Threads, name, value, 0)
	case "sq8_rerank":
		err = setInt(&o.Rerank, name, value, 64)
	case "heap":
		if value != "n" && value != "k" {
			return true, fmt.Errorf("am: %s = %q: expects n or k", name, value)
		}
		o.HeapK = value == "k"
	case "distance_kernel":
		// Any KNOWN kernel name is accepted whatever this host registered:
		// a cluster router validates here and replays the SET onto shards
		// whose hardware may differ. An unregistered one (avx2 without the
		// ISA) resolves to the default, and Get reports what actually runs.
		kern, kerr := vec.ForName(value)
		if kerr != nil {
			return true, fmt.Errorf("am: %s = %q: expects one of %s", name, value, strings.Join(vec.KnownKernelNames(), ", "))
		}
		o.Kernel = kern
	default:
		return false, nil
	}
	return true, err
}

// setInt parses a positive integer knob, bounded above by max when max
// is positive.
func setInt(field *int, name, value string, max int) error {
	n, err := strconv.Atoi(value)
	switch {
	case err != nil || n < 1:
		return fmt.Errorf("am: %s = %q: expects a positive integer", name, value)
	case max > 0 && n > max:
		return fmt.Errorf("am: %s = %q: expects an integer between 1 and %d", name, value, max)
	}
	*field = n
	return nil
}

// Get renders the named knob the way Set would accept it back.
func (o *ScanOpts) Get(name string) (value string, known bool) {
	switch name {
	case "nprobe":
		return strconv.Itoa(o.NProbe), true
	case "efs":
		return strconv.Itoa(o.EFS), true
	case "threads":
		return strconv.Itoa(o.Threads), true
	case "sq8_rerank":
		return strconv.Itoa(o.Rerank), true
	case "heap":
		if o.HeapK {
			return "k", true
		}
		return "n", true
	case "distance_kernel":
		return o.Kernel.Name(), true
	}
	return "", false
}

// ScanEach answers a batch query by query: the Scan of an access method
// (or of a scan mode) that shares no work across a batch.
func ScanEach(queries []Query, one func(Query) ([]Result, error)) ([][]Result, error) {
	out := make([][]Result, len(queries))
	for i, q := range queries {
		var err error
		if out[i], err = one(q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SearchCompat is the body of every access method's Search(map) shim:
// parse the knob map with the one parser (names that are not scan knobs
// are skipped — the benchmark passes a session's whole settings map) and
// run a Scan of one query.
func SearchCompat(ix Index, query []float32, k int, params map[string]string) ([]Result, error) {
	opts := DefaultScanOpts()
	for name, value := range params {
		if _, err := opts.Set(name, value); err != nil {
			return nil, err
		}
	}
	out, err := ix.Scan([]Query{{Vec: query, K: k}}, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
