// Package db assembles the PostgreSQL-style substrate into a usable
// database engine: a shared buffer pool over per-relation page stores, a
// catalog, heap tables, registered index access methods, and optional
// write-ahead logging. The SQL layer (internal/pg/sql) executes against
// this engine; the benchmark harness drives it directly.
package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/catalog"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/pg/page"
	"vecstudy/internal/pg/storage"
	"vecstudy/internal/pg/wal"
)

// Config parameterizes Open.
type Config struct {
	// PageSize is the block size; 0 means page.DefaultSize (8 KiB).
	// Table IV reruns the HNSW size experiment at 4096.
	PageSize int
	// BufferFrames sizes the shared buffer pool; 0 means 16384 frames
	// (128 MiB at the default page size — everything memory-resident, as
	// the paper's methodology requires).
	BufferFrames int
	// BufferPartitions splits the buffer pool into independently locked
	// partitions, like PostgreSQL's buffer-mapping partitions. 0 means
	// buffer.DefaultPartitions (16, the concurrent-serving default);
	// 1 reproduces the paper's single-lock pool (the RC#2/RC#3
	// ablation configuration). Adjustable at runtime through
	// SetBufferPartitions / SET buffer_partitions.
	BufferPartitions int
	// Dir is the database directory for file-backed storage; empty means
	// fully in-memory page stores (the tmpfs configuration of Sec V-A2).
	Dir string
	// EnableWAL turns on write-ahead logging (file-backed only).
	EnableWAL bool
}

// DB is an open database.
type DB struct {
	cfg  Config
	pool *buffer.Pool
	cat  *catalog.Catalog
	wal  *wal.Log

	mu      sync.Mutex
	stores  map[buffer.RelID]storage.PageStore
	tables  map[string]*heap.Table
	indexes map[string]am.Index

	// gate is the statement-level lock: SELECT and INSERT take it shared
	// (heap and index structures handle their own fine-grained locking),
	// DELETE/UPDATE/VACUUM take it exclusive so visibility flips and
	// structure rewrites never interleave with concurrent scans.
	gate sync.RWMutex

	nDeleted      atomic.Int64
	nUpdated      atomic.Int64
	nVacuums      atomic.Int64
	nDeadReclaim  atomic.Int64
	nIndexRepairs atomic.Int64
}

// Open creates (or reopens, for file-backed dirs with a saved catalog) a
// database.
func Open(cfg Config) (*DB, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = page.DefaultSize
	}
	if cfg.BufferFrames == 0 {
		cfg.BufferFrames = 16384
	}
	if cfg.BufferPartitions == 0 {
		cfg.BufferPartitions = buffer.DefaultPartitions
	}
	pool, err := buffer.NewPartitionedPool(cfg.PageSize, cfg.BufferFrames, cfg.BufferPartitions)
	if err != nil {
		return nil, err
	}
	d := &DB{
		cfg:     cfg,
		pool:    pool,
		cat:     catalog.New(),
		stores:  make(map[buffer.RelID]storage.PageStore),
		tables:  make(map[string]*heap.Table),
		indexes: make(map[string]am.Index),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if cfg.EnableWAL {
			w, err := wal.Open(filepath.Join(cfg.Dir, "wal.log"))
			if err != nil {
				return nil, err
			}
			d.wal = w
			pool.SetWAL(w)
		}
		if cat, err := catalog.Load(filepath.Join(cfg.Dir, "catalog.gob")); err == nil {
			d.cat = cat
			if err := d.reattach(); err != nil {
				return nil, err
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	} else if cfg.EnableWAL {
		return nil, errors.New("db: WAL requires a file-backed directory")
	}
	return d, nil
}

// reattach re-registers stored relations after reopening a directory.
// Indexes are reopened lazily by rebuilding on first use (the paper's
// workloads always rebuild; see Limitations in README).
func (d *DB) reattach() error {
	for _, tm := range d.cat.Tables() {
		store, err := d.openStore(tm.Rel)
		if err != nil {
			return err
		}
		if err := d.pool.Register(tm.Rel, store); err != nil {
			return err
		}
		tbl, err := heap.New(d.pool, tm.Rel, tm.Schema)
		if err != nil {
			return err
		}
		if d.wal != nil {
			tbl.SetWAL(d.wal)
		}
		d.tables[tm.Name] = tbl
	}
	return nil
}

func (d *DB) openStore(rel buffer.RelID) (storage.PageStore, error) {
	if d.cfg.Dir == "" {
		return storage.NewMemStore(d.cfg.PageSize), nil
	}
	return storage.OpenFileStore(filepath.Join(d.cfg.Dir, fmt.Sprintf("rel_%d", rel)), d.cfg.PageSize)
}

// Pool exposes the shared buffer pool (benchmarks report its hit rates).
func (d *DB) Pool() *buffer.Pool { return d.pool }

// SetBufferPartitions repartitions the buffer pool at runtime (the SET
// buffer_partitions knob). The pool must be quiescent — no pinned
// buffers — or buffer.ErrPoolPinned is returned.
func (d *DB) SetBufferPartitions(n int) error {
	return d.pool.SetPartitions(n)
}

// Catalog exposes the schema registry.
func (d *DB) Catalog() *catalog.Catalog { return d.cat }

// CreateTable creates an empty heap table.
func (d *DB) CreateTable(name string, schema heap.Schema) (*heap.Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rel := d.cat.AllocRel()
	store, err := d.openStore(rel)
	if err != nil {
		return nil, err
	}
	if err := d.pool.Register(rel, store); err != nil {
		return nil, err
	}
	if _, err := d.cat.CreateTable(name, rel, schema); err != nil {
		return nil, err
	}
	tbl, err := heap.New(d.pool, rel, schema)
	if err != nil {
		return nil, err
	}
	if d.wal != nil {
		tbl.SetWAL(d.wal)
	}
	d.stores[rel] = store
	d.tables[name] = tbl
	return tbl, nil
}

// Table returns an open table by name.
func (d *DB) Table(name string) (*heap.Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tbl, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no such table %q", name)
	}
	return tbl, nil
}

// Insert adds one row to a table and maintains every index on it.
func (d *DB) Insert(table string, values []any) (heap.TID, error) {
	tbl, err := d.Table(table)
	if err != nil {
		return heap.TID{}, err
	}
	tid, err := tbl.Insert(values)
	if err != nil {
		return heap.TID{}, err
	}
	for _, im := range d.cat.IndexesOn(table) {
		d.mu.Lock()
		idx, ok := d.indexes[im.Name]
		d.mu.Unlock()
		if !ok {
			continue
		}
		col := tbl.Schema().ColIndex(im.Column)
		v, ok := values[col].([]float32)
		if !ok {
			return tid, fmt.Errorf("db: column %q is not a vector", im.Column)
		}
		if err := idx.Insert(v, tid); err != nil {
			return tid, err
		}
	}
	return tid, nil
}

// StmtGate exposes the statement-level lock. The SQL executor (and the
// batch coalescer's group runner) takes it shared around reads and
// inserts and exclusive around DELETE/UPDATE/VACUUM.
func (d *DB) StmtGate() *sync.RWMutex { return &d.gate }

// MutationStats is a snapshot of the dynamic-data counters, surfaced by
// SHOW server_stats.
type MutationStats struct {
	TuplesDeleted int64
	TuplesUpdated int64
	VacuumRuns    int64
	DeadReclaimed int64 // dead entries removed across heap + indexes
	IndexRepairs  int64 // per-index Maintain passes that removed entries
}

// Mutations snapshots the dynamic-data counters.
func (d *DB) Mutations() MutationStats {
	return MutationStats{
		TuplesDeleted: d.nDeleted.Load(),
		TuplesUpdated: d.nUpdated.Load(),
		VacuumRuns:    d.nVacuums.Load(),
		DeadReclaimed: d.nDeadReclaim.Load(),
		IndexRepairs:  d.nIndexRepairs.Load(),
	}
}

// indexedVectors reads the still-visible tuple's vector for every index
// on the table, keyed by index name. Index deletion needs the vector:
// IVF re-derives the owning bucket from it.
func (d *DB) indexedVectors(table string, tbl *heap.Table, tid heap.TID) (map[string][]float32, bool, error) {
	ims := d.cat.IndexesOn(table)
	if len(ims) == 0 {
		return nil, true, nil
	}
	vecs := make(map[string][]float32, len(ims))
	ok, err := tbl.GetVisible(tid, func(tup []byte) error {
		for _, im := range ims {
			col := tbl.Schema().ColIndex(im.Column)
			v, err := tbl.Schema().VectorAt(tup, col)
			if err != nil {
				return err
			}
			vecs[im.Name] = append([]float32(nil), v...)
		}
		return nil
	})
	return vecs, ok, err
}

// Delete removes one row: the heap tuple's line pointer is marked dead
// and every index on the table tombstones its entry. Deleting an
// already-dead or unknown TID is a no-op returning false. Callers must
// hold the statement gate exclusively.
func (d *DB) Delete(table string, tid heap.TID) (bool, error) {
	tbl, err := d.Table(table)
	if err != nil {
		return false, err
	}
	vecs, visible, err := d.indexedVectors(table, tbl, tid)
	if err != nil {
		return false, err
	}
	if !visible {
		return false, nil
	}
	ok, err := tbl.Delete(tid)
	if err != nil || !ok {
		return false, err
	}
	for _, im := range d.cat.IndexesOn(table) {
		d.mu.Lock()
		idx, open := d.indexes[im.Name]
		d.mu.Unlock()
		if !open {
			continue
		}
		if _, err := idx.Delete(vecs[im.Name], tid); err != nil {
			return true, err
		}
	}
	d.nDeleted.Add(1)
	return true, nil
}

// Update replaces one row: delete-old + insert-new, PostgreSQL's
// non-HOT update path — the TID changes and indexes see a tombstone plus
// a fresh entry. Returns the new TID; ok is false when the old tuple was
// already gone. Callers must hold the statement gate exclusively.
func (d *DB) Update(table string, tid heap.TID, values []any) (heap.TID, bool, error) {
	ok, err := d.Delete(table, tid)
	if err != nil || !ok {
		return heap.TID{}, false, err
	}
	newTID, err := d.Insert(table, values)
	if err != nil {
		return heap.TID{}, false, err
	}
	d.nUpdated.Add(1)
	d.nDeleted.Add(-1) // counted as an update, not a delete
	return newTID, true, nil
}

// NoteVacuum records a completed vacuum pass in the stats counters.
func (d *DB) NoteVacuum(deadReclaimed, indexRepairs int64) {
	d.nVacuums.Add(1)
	d.nDeadReclaim.Add(deadReclaimed)
	d.nIndexRepairs.Add(indexRepairs)
}

// CreateIndex builds an index over an existing table column using the
// named access method.
func (d *DB) CreateIndex(name, table, column, amName string, opts map[string]string) (am.Index, error) {
	build, err := am.Lookup(amName)
	if err != nil {
		return nil, err
	}
	tbl, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	col := tbl.Schema().ColIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("db: no column %q on %q", column, table)
	}
	dim, err := d.vectorDim(tbl, col)
	if err != nil {
		return nil, err
	}

	d.mu.Lock()
	rel := d.cat.AllocRel()
	store, err := d.openStore(rel)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	if err := d.pool.Register(rel, store); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	d.stores[rel] = store
	d.mu.Unlock()

	ctx := &am.BuildContext{
		Pool: d.pool, Rel: rel, Table: tbl, VecCol: col, Dim: dim,
		Opts: opts,
	}
	idx, err := build(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := d.cat.CreateIndex(name, rel, table, column, amName, opts); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.indexes[name] = idx
	d.mu.Unlock()
	return idx, nil
}

// vectorDim infers the vector column's dimensionality from the first row.
func (d *DB) vectorDim(tbl *heap.Table, col int) (int, error) {
	dim := -1
	err := tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		v, err := tbl.Schema().VectorAt(tup, col)
		if err != nil {
			return false, err
		}
		dim = len(v)
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	if dim <= 0 {
		return 0, errors.New("db: cannot infer vector dimension from an empty table")
	}
	return dim, nil
}

// Index returns a built index by name.
func (d *DB) Index(name string) (am.Index, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	idx, ok := d.indexes[name]
	if !ok {
		return nil, fmt.Errorf("db: no such index %q", name)
	}
	return idx, nil
}

// IndexOn returns some built index on (table, column), or nil.
func (d *DB) IndexOn(table, column string) am.Index {
	for _, im := range d.cat.IndexesOn(table) {
		if im.Column == column {
			d.mu.Lock()
			idx := d.indexes[im.Name]
			d.mu.Unlock()
			if idx != nil {
				return idx
			}
		}
	}
	return nil
}

// Checkpoint flushes dirty pages (and the catalog, when file-backed).
func (d *DB) Checkpoint() error {
	if d.wal != nil {
		if err := d.wal.Sync(); err != nil {
			return err
		}
	}
	if err := d.pool.FlushAll(); err != nil {
		return err
	}
	if d.cfg.Dir != "" {
		if err := d.cat.Save(filepath.Join(d.cfg.Dir, "catalog.gob")); err != nil {
			return err
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, s := range d.stores {
			if err := s.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close checkpoints and releases every store.
func (d *DB) Close() error {
	if err := d.Checkpoint(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	for _, s := range d.stores {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
