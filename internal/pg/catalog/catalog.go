// Package catalog tracks the generalized engine's schema objects —
// tables and indexes — and allocates relation IDs, playing the role of
// pg_class/pg_index. It persists itself with encoding/gob so a database
// directory can be reopened.
package catalog

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sync"

	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
)

// Errors returned by catalog operations.
var (
	ErrTableExists   = errors.New("catalog: table already exists")
	ErrIndexExists   = errors.New("catalog: index already exists")
	ErrNoSuchTable   = errors.New("catalog: no such table")
	ErrNoSuchIndex   = errors.New("catalog: no such index")
	ErrColumnMissing = errors.New("catalog: no such column")
)

// TableMeta describes one table.
type TableMeta struct {
	Name   string
	Rel    buffer.RelID
	Schema heap.Schema
}

// IndexMeta describes one index.
type IndexMeta struct {
	Name    string
	Rel     buffer.RelID
	Table   string
	Column  string
	AM      string // access method name (ivfflat, ivfpq, hnsw, ...)
	Options map[string]string
}

// Catalog is the schema registry. All methods are safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*TableMeta
	indexes map[string]*IndexMeta
	nextRel buffer.RelID
}

// New returns an empty catalog. Relation IDs start at 1.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*TableMeta),
		indexes: make(map[string]*IndexMeta),
		nextRel: 1,
	}
}

// AllocRel hands out a fresh relation ID.
func (c *Catalog) AllocRel() buffer.RelID {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel := c.nextRel
	c.nextRel++
	return rel
}

// CreateTable registers a table.
func (c *Catalog) CreateTable(name string, rel buffer.RelID, schema heap.Schema) (*TableMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	tm := &TableMeta{Name: name, Rel: rel, Schema: schema}
	c.tables[name] = tm
	return tm, nil
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*TableMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tm, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return tm, nil
}

// Tables returns all table metadata.
func (c *Catalog) Tables() []*TableMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableMeta, 0, len(c.tables))
	for _, tm := range c.tables {
		out = append(out, tm)
	}
	return out
}

// CreateIndex registers an index over an existing table and column.
func (c *Catalog) CreateIndex(name string, rel buffer.RelID, table, column, amName string, opts map[string]string) (*IndexMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.indexes[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrIndexExists, name)
	}
	tm, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	if tm.Schema.ColIndex(column) < 0 {
		return nil, fmt.Errorf("%w: %q.%q", ErrColumnMissing, table, column)
	}
	im := &IndexMeta{Name: name, Rel: rel, Table: table, Column: column, AM: amName, Options: opts}
	c.indexes[name] = im
	return im, nil
}

// Index looks an index up by name.
func (c *Catalog) Index(name string) (*IndexMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	im, ok := c.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	return im, nil
}

// IndexesOn returns the indexes covering the given table.
func (c *Catalog) IndexesOn(table string) []*IndexMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*IndexMeta
	for _, im := range c.indexes {
		if im.Table == table {
			out = append(out, im)
		}
	}
	return out
}

// snapshot is the gob wire form.
type snapshot struct {
	Tables  map[string]*TableMeta
	Indexes map[string]*IndexMeta
	NextRel buffer.RelID
}

// Save persists the catalog to path.
func (c *Catalog) Save(path string) error {
	c.mu.RLock()
	snap := snapshot{Tables: c.tables, Indexes: c.indexes, NextRel: c.nextRel}
	c.mu.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(snap); err != nil {
		f.Close()
		return fmt.Errorf("catalog: encode: %w", err)
	}
	return f.Close()
}

// Load reads a catalog previously written by Save.
func Load(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("catalog: decode: %w", err)
	}
	c := New()
	if snap.Tables != nil {
		c.tables = snap.Tables
	}
	if snap.Indexes != nil {
		c.indexes = snap.Indexes
	}
	if snap.NextRel > 0 {
		c.nextRel = snap.NextRel
	}
	return c, nil
}
