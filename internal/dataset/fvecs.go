package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"vecstudy/internal/vec"
)

// This file implements the TEXMEX fvecs/ivecs/bvecs formats used to
// distribute SIFT1M, GIST1M, and friends: each vector is stored as a
// little-endian int32 dimension header followed by the components
// (float32 / int32 / uint8). Dropping the real files next to the harness
// replaces the synthetic generators.

// ReadFvecs loads an entire .fvecs file into a Flat matrix. maxRows caps
// the number of vectors read (0 = all).
func ReadFvecs(path string, maxRows int) (*vec.Flat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readFvecs(bufio.NewReaderSize(f, 1<<20), maxRows, path)
}

func readFvecs(r io.Reader, maxRows int, name string) (*vec.Flat, error) {
	var flat *vec.Flat
	var hdr [4]byte
	rows := 0
	for maxRows == 0 || rows < maxRows {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("dataset: reading %s: %w", name, err)
		}
		d := int(int32(binary.LittleEndian.Uint32(hdr[:])))
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("dataset: %s: implausible dimension %d at row %d", name, d, rows)
		}
		if flat == nil {
			flat = vec.NewFlat(d, 1024)
		} else if flat.D != d {
			return nil, fmt.Errorf("dataset: %s: dimension changed from %d to %d at row %d", name, flat.D, d, rows)
		}
		buf := make([]byte, 4*d)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("dataset: %s: truncated row %d: %w", name, rows, err)
		}
		row := make([]float32, d)
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		flat.Append(row)
		rows++
	}
	if flat == nil {
		return nil, fmt.Errorf("dataset: %s: empty fvecs file", name)
	}
	return flat, nil
}

// WriteFvecs writes a Flat matrix in fvecs format.
func WriteFvecs(path string, m *vec.Flat) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(m.D))
	buf := make([]byte, 4*m.D)
	for i := 0; i < m.N(); i++ {
		if _, err := w.Write(hdr[:]); err != nil {
			f.Close()
			return err
		}
		row := m.Row(i)
		for j, v := range row {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadIvecs loads an .ivecs file (e.g., TEXMEX ground-truth files) as a
// slice of int32 rows.
//
//vetvec:test-probe no experiment reads TEXMEX ground truth yet; the format tests pin the reader
func ReadIvecs(path string, maxRows int) ([][]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var out [][]int32
	var hdr [4]byte
	for maxRows == 0 || len(out) < maxRows {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("dataset: reading %s: %w", path, err)
		}
		d := int(int32(binary.LittleEndian.Uint32(hdr[:])))
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("dataset: %s: implausible row length %d", path, d)
		}
		buf := make([]byte, 4*d)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("dataset: %s: truncated row %d: %w", path, len(out), err)
		}
		row := make([]int32, d)
		for i := range row {
			row[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		out = append(out, row)
	}
	return out, nil
}

// WriteIvecs writes rows in ivecs format.
func WriteIvecs(path string, rows [][]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [4]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(row)))
		if _, err := w.Write(hdr[:]); err != nil {
			f.Close()
			return err
		}
		for _, v := range row {
			binary.LittleEndian.PutUint32(hdr[:], uint32(v))
			if _, err := w.Write(hdr[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
