// Package prof stands in for the paper's use of Linux Perf: it samples
// where a workload spends its CPU time, with no instrumentation in the
// engines. Sample runs a function under the Go runtime's CPU profiler
// (which acts on this process only) and decodes the profile it writes.
// The breakdown tables (Table III, Table V, Fig 8) are read from the
// stacks it returns by internal/bench's frame table.
//
// The runtime's profile is a gzipped profile.proto. The standard
// library's decoder is internal to it, so this package reads the few
// messages it needs itself: samples, locations with their inlined lines,
// functions and the string table.
package prof

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// Stack is one distinct call stack the profiler caught.
type Stack struct {
	// Frames are function names, innermost first. A call the compiler
	// inlined is a frame of its own, as in the source.
	Frames []string
	// Count is the number of samples that caught this stack.
	Count int64
}

// Sample runs fn under the CPU profiler at the runtime's default rate
// (100 Hz) and returns the stacks it caught. Only one profile can run
// in a process at a time; a second concurrent Sample fails.
func Sample(fn func() error) ([]Stack, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return decode(buf.Bytes())
}

// Field numbers of the profile.proto messages decode reads.
const (
	profileSample   = 2
	profileLocation = 4
	profileFunction = 5
	profileString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("prof: truncated profile")

// decode reads a gzipped profile.proto into its stacks. Malformed input
// is an error, never a panic.
func decode(gz []byte) ([]Stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		strs      []string
		funcNames = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profileSample:
			var s sample
			var values []uint64
			err := fields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case sampleLocation:
					s.locs, err = appendVarints(s.locs, v, b)
				case sampleValue:
					values, err = appendVarints(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) == 0 {
				return errors.New("prof: sample without a value")
			}
			s.count = int64(values[0])
			samples = append(samples, s)
		case profileLocation:
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case profileFunction:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case profileString:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	stacks := make([]Stack, 0, len(samples))
	for _, s := range samples {
		st := Stack{Count: s.count}
		for _, loc := range s.locs {
			funcs, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("prof: sample names unknown location %d", loc)
			}
			for _, f := range funcs {
				name, ok := funcNames[f]
				if !ok || name >= uint64(len(strs)) {
					return nil, fmt.Errorf("prof: location %d names unknown function %d", loc, f)
				}
				st.Frames = append(st.Frames, strs[name])
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// fields calls fn for each field of the protobuf message b: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0: // varint
			if v, n = varint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := varint(b)
			if n == 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("prof: field %d has unknown wire type %d", num, wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value (v)
// when b is nil, else the packed run b holds.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// varint decodes a base-128 varint, returning 0 bytes read when b ends
// inside it or it overflows 64 bits.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
