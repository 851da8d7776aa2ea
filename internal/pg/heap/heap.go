// Package heap implements PostgreSQL-style heap tables: tuples packed
// into slotted pages, addressed by TID (block number, offset number), and
// always reached through the shared buffer pool.
//
// The generalized engine stores its base table here — `CREATE TABLE T (id
// int, vec float[])` — and its index access methods return TIDs that the
// executor resolves through Table.Get. That resolution path (pin page →
// locate line pointer → decode tuple) is exactly the "Tuple Access" cost
// the paper's Table V and Fig 8 break out under RC#2.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/page"
	"vecstudy/internal/pg/wal"
)

// TID addresses one tuple: (block number, 1-based offset number), like
// PostgreSQL's ItemPointer.
type TID struct {
	Blk uint32
	Off uint16
}

// String renders the TID in PostgreSQL's "(blk,off)" form.
func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Blk, t.Off) }

// Pack encodes the TID into 6 bytes at b.
func (t TID) Pack(b []byte) {
	binary.LittleEndian.PutUint32(b, t.Blk)
	binary.LittleEndian.PutUint16(b[4:], t.Off)
}

// UnpackTID decodes a TID packed by Pack.
func UnpackTID(b []byte) TID {
	return TID{Blk: binary.LittleEndian.Uint32(b), Off: binary.LittleEndian.Uint16(b[4:])}
}

// PackedTIDSize is the on-page footprint of a packed TID.
const PackedTIDSize = 6

// ColType enumerates supported column types.
type ColType int

// Supported column types.
const (
	Int4 ColType = iota
	Int8
	Float4
	Text
	Float4Array // the vector type, PASE's float[]
)

// String implements fmt.Stringer for schema printing.
func (c ColType) String() string {
	switch c {
	case Int4:
		return "int"
	case Int8:
		return "bigint"
	case Float4:
		return "real"
	case Text:
		return "text"
	case Float4Array:
		return "float[]"
	default:
		return fmt.Sprintf("coltype(%d)", int(c))
	}
}

// Column is one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table's tuple layout.
type Schema struct {
	Cols []Column
}

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Encode serializes one row. Values must match the schema's types:
// int32/int64/float32/string/[]float32.
func (s Schema) Encode(values []any) ([]byte, error) {
	if len(values) != len(s.Cols) {
		return nil, fmt.Errorf("heap: %d values for %d columns", len(values), len(s.Cols))
	}
	size := 0
	for i, c := range s.Cols {
		switch c.Type {
		case Int4, Float4:
			size += 4
		case Int8:
			size += 8
		case Text:
			v, ok := values[i].(string)
			if !ok {
				return nil, typeErr(c, values[i])
			}
			size += 4 + len(v)
		case Float4Array:
			v, ok := values[i].([]float32)
			if !ok {
				return nil, typeErr(c, values[i])
			}
			size += 4 + 4*len(v)
		}
	}
	out := make([]byte, 0, size)
	var scratch [8]byte
	for i, c := range s.Cols {
		switch c.Type {
		case Int4:
			v, ok := values[i].(int32)
			if !ok {
				return nil, typeErr(c, values[i])
			}
			binary.LittleEndian.PutUint32(scratch[:], uint32(v))
			out = append(out, scratch[:4]...)
		case Int8:
			v, ok := values[i].(int64)
			if !ok {
				return nil, typeErr(c, values[i])
			}
			binary.LittleEndian.PutUint64(scratch[:], uint64(v))
			out = append(out, scratch[:8]...)
		case Float4:
			v, ok := values[i].(float32)
			if !ok {
				return nil, typeErr(c, values[i])
			}
			binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
			out = append(out, scratch[:4]...)
		case Text:
			v := values[i].(string)
			binary.LittleEndian.PutUint32(scratch[:], uint32(len(v)))
			out = append(out, scratch[:4]...)
			out = append(out, v...)
		case Float4Array:
			v := values[i].([]float32)
			binary.LittleEndian.PutUint32(scratch[:], uint32(len(v)))
			out = append(out, scratch[:4]...)
			for _, f := range v {
				binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(f))
				out = append(out, scratch[:4]...)
			}
		}
	}
	return out, nil
}

func typeErr(c Column, v any) error {
	return fmt.Errorf("heap: column %q (%s): incompatible value %T", c.Name, c.Type, v)
}

// Decode deserializes one row into Go values.
func (s Schema) Decode(data []byte) ([]any, error) {
	out := make([]any, len(s.Cols))
	pos := 0
	for i, c := range s.Cols {
		switch c.Type {
		case Int4:
			if pos+4 > len(data) {
				return nil, errShortTuple(c)
			}
			out[i] = int32(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		case Int8:
			if pos+8 > len(data) {
				return nil, errShortTuple(c)
			}
			out[i] = int64(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		case Float4:
			if pos+4 > len(data) {
				return nil, errShortTuple(c)
			}
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		case Text:
			if pos+4 > len(data) {
				return nil, errShortTuple(c)
			}
			n := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if pos+n > len(data) {
				return nil, errShortTuple(c)
			}
			out[i] = string(data[pos : pos+n])
			pos += n
		case Float4Array:
			if pos+4 > len(data) {
				return nil, errShortTuple(c)
			}
			n := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if pos+4*n > len(data) {
				return nil, errShortTuple(c)
			}
			v := make([]float32, n)
			for j := range v {
				v[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4*j:]))
			}
			out[i] = v
			pos += 4 * n
		}
	}
	return out, nil
}

func errShortTuple(c Column) error {
	return fmt.Errorf("heap: tuple too short decoding column %q", c.Name)
}

// VectorAt extracts the []float32 of a Float4Array column from an encoded
// tuple without decoding the other columns. The returned slice is a copy.
func (s Schema) VectorAt(data []byte, col int) ([]float32, error) {
	pos := 0
	for i := 0; i < col; i++ {
		switch s.Cols[i].Type {
		case Int4, Float4:
			pos += 4
		case Int8:
			pos += 8
		case Text, Float4Array:
			if pos+4 > len(data) {
				return nil, errShortTuple(s.Cols[i])
			}
			n := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if s.Cols[i].Type == Float4Array {
				n *= 4
			}
			pos += n
		}
	}
	if s.Cols[col].Type != Float4Array {
		return nil, fmt.Errorf("heap: column %d is %s, not float[]", col, s.Cols[col].Type)
	}
	if pos+4 > len(data) {
		return nil, errShortTuple(s.Cols[col])
	}
	n := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if pos+4*n > len(data) {
		return nil, errShortTuple(s.Cols[col])
	}
	v := make([]float32, n)
	for j := range v {
		v[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4*j:]))
	}
	return v, nil
}

// Table is a heap table bound to a relation in a buffer pool.
type Table struct {
	pool   *buffer.Pool
	rel    buffer.RelID
	schema Schema

	mu      sync.Mutex
	lastBlk uint32 // insertion target hint
	hasBlk  bool
	ntuples int64
	ndead   int64 // dead line pointers awaiting vacuum

	sample sampler // reservoir of raw tuples for selectivity estimation

	wal *wal.Log
}

// SampleCap is the reservoir capacity of the per-table tuple sample the
// planner estimates predicate selectivity from (ANALYZE-style statistics
// maintained inline, PostgreSQL's default_statistics_target in spirit).
const SampleCap = 256

// sampler keeps a bounded uniform reservoir of raw tuples (Vitter's
// algorithm R) maintained on every insert and rebuilt by the restore
// scan on reopen. The seed is fixed so plan choices are reproducible.
type sampler struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rows [][]byte
	seen int64
}

func (s *sampler) add(tup []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	s.seen++
	if len(s.rows) < SampleCap {
		s.rows = append(s.rows, append([]byte(nil), tup...))
		return
	}
	if j := s.rng.Int63n(s.seen); j < int64(len(s.rows)) {
		s.rows[j] = append(s.rows[j][:0], tup...)
	}
}

// drop down-weights the reservoir after a delete: the first byte-equal
// row (if sampled) is evicted and the population count shrinks, so the
// sample keeps tracking the live tuple distribution instead of drifting
// toward deleted data. A full rebuild (vacuum) restores exact uniformity.
func (s *sampler) drop(tup []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen > 0 {
		s.seen--
	}
	for i, r := range s.rows {
		if string(r) == string(tup) {
			last := len(s.rows) - 1
			s.rows[i] = s.rows[last]
			s.rows[last] = nil
			s.rows = s.rows[:last]
			return
		}
	}
}

// reset empties the reservoir (rebuild begins from a fresh, reproducible
// stream: same fixed seed as first construction).
func (s *sampler) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng = rand.New(rand.NewSource(1))
	s.rows = s.rows[:0]
	s.seen = 0
}

// Sample returns up to SampleCap rows decoded from the table's uniform
// tuple reservoir. The result is a fresh slice; an empty table yields
// nil.
func (t *Table) Sample() ([][]any, error) {
	t.sample.mu.Lock()
	raw := make([][]byte, len(t.sample.rows))
	for i, r := range t.sample.rows {
		raw[i] = append([]byte(nil), r...) // deep copy: add may recycle entries
	}
	t.sample.mu.Unlock()
	out := make([][]any, 0, len(raw))
	for _, tup := range raw {
		vals, err := t.schema.Decode(tup)
		if err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, nil
}

// New binds a table to (pool, rel). The relation must be registered with
// the pool. Existing blocks are scanned to restore the tuple count.
func New(pool *buffer.Pool, rel buffer.RelID, schema Schema) (*Table, error) {
	t := &Table{pool: pool, rel: rel, schema: schema}
	nblocks, err := pool.NumBlocks(rel)
	if err != nil {
		return nil, err
	}
	if nblocks > 0 {
		t.lastBlk = nblocks - 1
		t.hasBlk = true
		if err := t.Scan(func(_ TID, tup []byte) (bool, error) {
			t.ntuples++
			t.sample.add(tup) // rebuild planner statistics on reopen
			return true, nil
		}); err != nil {
			return nil, err
		}
		// Restore the dead-tuple count too, so DeadFraction (the
		// auto-vacuum trigger) survives a reopen.
		for blk := uint32(0); blk < nblocks; blk++ {
			buf, err := pool.Pin(rel, blk)
			if err != nil {
				return nil, err
			}
			pg := buf.Page()
			for off := uint16(1); off <= pg.NumItems(); off++ {
				if pg.ItemIsDead(off) && pg.DeadSpace(off) > 0 {
					t.ndead++
				}
			}
			buf.Release()
		}
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Rel returns the relation ID.
func (t *Table) Rel() buffer.RelID { return t.rel }

// NTuples returns the number of live tuples.
func (t *Table) NTuples() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ntuples
}

// NDead returns the number of dead tuples not yet reclaimed by vacuum.
func (t *Table) NDead() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ndead
}

// DeadFraction returns the fraction of the table's tuples that are dead
// — the auto-vacuum trigger metric. An empty table reports 0.
func (t *Table) DeadFraction() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.ntuples + t.ndead
	if total == 0 {
		return 0
	}
	return float64(t.ndead) / float64(total)
}

// SetWAL enables logical WAL logging of inserts.
func (t *Table) SetWAL(l *wal.Log) { t.wal = l }

// Insert encodes and stores one row, returning its TID.
func (t *Table) Insert(values []any) (TID, error) {
	tup, err := t.schema.Encode(values)
	if err != nil {
		return TID{}, err
	}
	return t.InsertRaw(tup)
}

// InsertRaw stores a pre-encoded tuple.
func (t *Table) InsertRaw(tup []byte) (TID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hasBlk {
		// Pinning under t.mu is deliberate: the lock serializes AddItem
		// against lastBlk so two inserters cannot interleave slot
		// allocation on the same page. The paper's single-writer insert
		// path never contends here; a free-space map would be the real
		// fix if it ever did.
		//vetvec:locked-io
		buf, err := t.pool.Pin(t.rel, t.lastBlk)
		if err != nil {
			return TID{}, err
		}
		if off, err := buf.Page().AddItem(tup); err == nil {
			buf.MarkDirty()
			tid := TID{Blk: t.lastBlk, Off: off}
			buf.Release()
			t.ntuples++
			t.sample.add(tup)
			return tid, t.logInsert(tup)
		} else if !errors.Is(err, page.ErrPageFull) {
			buf.Release()
			return TID{}, err
		}
		buf.Release()
	}
	// Same rationale as the Pin above: t.mu keeps page extension and
	// lastBlk publication atomic with respect to other inserters.
	//vetvec:locked-io
	buf, blk, err := t.pool.NewPage(t.rel)
	if err != nil {
		return TID{}, err
	}
	page.Init(buf.Page(), 0)
	off, err := buf.Page().AddItem(tup)
	if err != nil {
		buf.Release()
		return TID{}, fmt.Errorf("heap: tuple does not fit an empty page: %w", err)
	}
	buf.MarkDirty()
	buf.Release()
	t.lastBlk, t.hasBlk = blk, true
	t.ntuples++
	t.sample.add(tup)
	return TID{Blk: blk, Off: off}, t.logInsert(tup)
}

func (t *Table) logInsert(tup []byte) error {
	if t.wal == nil {
		return nil
	}
	_, err := t.wal.Append(uint32(t.rel), 0, tup)
	return err
}

// Get pins the tuple's page and invokes fn with the raw tuple bytes. The
// slice is only valid inside fn. A dead tuple is an error here; search
// and executor paths that may race a DELETE must use GetVisible (the
// visibility check helper the vetvec deadvisibility rule enforces).
func (t *Table) Get(tid TID, fn func(tup []byte) error) error {
	buf, err := t.pool.Pin(t.rel, tid.Blk)
	if err != nil {
		return err
	}
	item, err := buf.Page().Item(tid.Off)
	if err != nil {
		buf.Release()
		return fmt.Errorf("heap: %v: %w", tid, err)
	}
	err = fn(item)
	buf.Release()
	return err
}

// GetVector resolves the Float4Array column col of the tuple at tid.
func (t *Table) GetVector(tid TID, col int) ([]float32, error) {
	var v []float32
	err := t.Get(tid, func(tup []byte) error {
		var err error
		v, err = t.schema.VectorAt(tup, col)
		return err
	})
	return v, err
}

// GetVisible is the visibility-checked tuple access: it pins the tuple's
// page, checks the dead bit, and invokes fn only on a live tuple. The
// bool reports visibility — (false, nil) means the tuple is dead, which
// read paths must treat as "skip", never as an error. This is the only
// sanctioned way for AM and executor scan paths to read heap bytes by
// TID (enforced by vetvec's deadvisibility analyzer).
func (t *Table) GetVisible(tid TID, fn func(tup []byte) error) (bool, error) {
	err := t.Get(tid, fn)
	if errors.Is(err, page.ErrDeadItem) {
		return false, nil
	}
	return err == nil, err
}

// GetVectorVisible resolves a Float4Array column under the visibility
// check: a dead tuple reports (nil, false, nil).
func (t *Table) GetVectorVisible(tid TID, col int) ([]float32, bool, error) {
	var v []float32
	ok, err := t.GetVisible(tid, func(tup []byte) error {
		var err error
		v, err = t.schema.VectorAt(tup, col)
		return err
	})
	if err != nil || !ok {
		return nil, false, err
	}
	return v, true, nil
}

// Visible reports whether the tuple at tid is live. Unlike GetVisible it
// does not decode anything — predicate paths use it to drop dead TIDs
// cheaply.
func (t *Table) Visible(tid TID) (bool, error) {
	buf, err := t.pool.Pin(t.rel, tid.Blk)
	if err != nil {
		return false, err
	}
	defer buf.Release()
	pg := buf.Page()
	if tid.Off == 0 || tid.Off > pg.NumItems() {
		return false, fmt.Errorf("heap: %v: offset out of range", tid)
	}
	return !pg.ItemIsDead(tid.Off), nil
}

// Scan iterates all live tuples in TID order. fn returns false to stop.
func (t *Table) Scan(fn func(tid TID, tup []byte) (bool, error)) error {
	nblocks, err := t.pool.NumBlocks(t.rel)
	if err != nil {
		return err
	}
	for blk := uint32(0); blk < nblocks; blk++ {
		buf, err := t.pool.Pin(t.rel, blk)
		if err != nil {
			return err
		}
		pg := buf.Page()
		if !pg.IsInit() {
			buf.Release()
			continue
		}
		n := pg.NumItems()
		for off := uint16(1); off <= n; off++ {
			item, err := pg.Item(off)
			if err != nil {
				if errors.Is(err, page.ErrDeadItem) {
					continue
				}
				buf.Release()
				return err
			}
			keep, err := fn(TID{Blk: blk, Off: off}, item)
			if err != nil || !keep {
				buf.Release()
				return err
			}
		}
		buf.Release()
	}
	return nil
}

// Delete marks the tuple at tid dead and down-weights the planner's
// reservoir sample so selectivity estimates keep tracking live data.
// Deleting an already-dead tuple is a no-op (false, nil) so concurrent
// or replayed deletes stay idempotent.
func (t *Table) Delete(tid TID) (bool, error) {
	buf, err := t.pool.Pin(t.rel, tid.Blk)
	if err != nil {
		return false, err
	}
	pg := buf.Page()
	item, err := pg.Item(tid.Off)
	if err != nil {
		buf.Release()
		if errors.Is(err, page.ErrDeadItem) {
			return false, nil
		}
		return false, fmt.Errorf("heap: delete %v: %w", tid, err)
	}
	tup := append([]byte(nil), item...)
	if err := pg.DeleteItem(tid.Off); err != nil {
		buf.Release()
		return false, err
	}
	buf.MarkDirty()
	buf.Release()
	t.mu.Lock()
	t.ntuples--
	t.ndead++
	t.mu.Unlock()
	t.sample.drop(tup)
	return true, nil
}

// RebuildSample discards the reservoir and repopulates it from a full
// scan of the live tuples, restoring exact uniformity after churn.
func (t *Table) RebuildSample() error {
	t.sample.reset()
	return t.Scan(func(_ TID, tup []byte) (bool, error) {
		t.sample.add(tup)
		return true, nil
	})
}

// VacuumStats reports what one heap vacuum pass reclaimed.
type VacuumStats struct {
	DeadReclaimed  int64 // dead tuples whose space was freed
	BytesFreed     int64 // page bytes returned to free space
	PagesCompacted int64
}

// Vacuum reclaims the space of dead tuples page by page (page.Compact)
// and rebuilds the reservoir sample. Dead line pointers stay dead —
// TIDs are never reused, so a stale index entry can only ever resolve
// to "invisible", never to the wrong row. The caller must hold the
// engine's statement gate exclusively: Vacuum rewrites page internals
// that concurrent readers alias.
func (t *Table) Vacuum() (VacuumStats, error) {
	var st VacuumStats
	nblocks, err := t.pool.NumBlocks(t.rel)
	if err != nil {
		return st, err
	}
	for blk := uint32(0); blk < nblocks; blk++ {
		buf, err := t.pool.Pin(t.rel, blk)
		if err != nil {
			return st, err
		}
		pg := buf.Page()
		if !pg.IsInit() {
			buf.Release()
			continue
		}
		dead := int64(0)
		for off := uint16(1); off <= pg.NumItems(); off++ {
			if pg.ItemIsDead(off) && pg.DeadSpace(off) > 0 {
				dead++
			}
		}
		if dead > 0 {
			st.BytesFreed += int64(pg.Compact())
			st.DeadReclaimed += dead
			st.PagesCompacted++
			buf.MarkDirty()
		}
		buf.Release()
	}
	if err := t.RebuildSample(); err != nil {
		return st, err
	}
	t.mu.Lock()
	t.ndead = 0
	t.mu.Unlock()
	return st, nil
}
