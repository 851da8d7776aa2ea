package catalog

import (
	"errors"
	"path/filepath"
	"testing"

	"vecstudy/internal/pg/heap"
)

var schema = heap.Schema{Cols: []heap.Column{
	{Name: "id", Type: heap.Int4},
	{Name: "vec", Type: heap.Float4Array},
}}

func TestAllocRelMonotonic(t *testing.T) {
	c := New()
	a, b := c.AllocRel(), c.AllocRel()
	if b <= a {
		t.Errorf("AllocRel not monotonic: %d then %d", a, b)
	}
}

func TestTableLifecycle(t *testing.T) {
	c := New()
	rel := c.AllocRel()
	if _, err := c.CreateTable("t", rel, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", c.AllocRel(), schema); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate table: %v", err)
	}
	tm, err := c.Table("t")
	if err != nil || tm.Rel != rel {
		t.Fatalf("Table: %+v, %v", tm, err)
	}
	if _, err := c.Table("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	if len(c.Tables()) != 1 {
		t.Errorf("Tables() = %d entries", len(c.Tables()))
	}
}

func TestIndexLifecycle(t *testing.T) {
	c := New()
	c.CreateTable("t", c.AllocRel(), schema)
	rel := c.AllocRel()
	if _, err := c.CreateIndex("i", rel, "t", "vec", "ivfflat", map[string]string{"clusters": "8"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("i", c.AllocRel(), "t", "vec", "hnsw", nil); !errors.Is(err, ErrIndexExists) {
		t.Errorf("duplicate index: %v", err)
	}
	if _, err := c.CreateIndex("j", c.AllocRel(), "missing", "vec", "hnsw", nil); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("index on missing table: %v", err)
	}
	if _, err := c.CreateIndex("j", c.AllocRel(), "t", "nope", "hnsw", nil); !errors.Is(err, ErrColumnMissing) {
		t.Errorf("index on missing column: %v", err)
	}
	im, err := c.Index("i")
	if err != nil || im.AM != "ivfflat" || im.Options["clusters"] != "8" {
		t.Fatalf("Index: %+v, %v", im, err)
	}
	if got := c.IndexesOn("t"); len(got) != 1 {
		t.Errorf("IndexesOn = %d", len(got))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := New()
	c.CreateTable("t", c.AllocRel(), schema)
	c.CreateIndex("i", c.AllocRel(), "t", "vec", "hnsw", map[string]string{"bnn": "16"})
	path := filepath.Join(t.TempDir(), "catalog.gob")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := loaded.Table("t")
	if err != nil || len(tm.Schema.Cols) != 2 {
		t.Fatalf("loaded table: %+v, %v", tm, err)
	}
	im, err := loaded.Index("i")
	if err != nil || im.Options["bnn"] != "16" {
		t.Fatalf("loaded index: %+v, %v", im, err)
	}
	// Rel allocation must continue past persisted IDs.
	if loaded.AllocRel() <= im.Rel {
		t.Error("AllocRel reused a persisted relation ID")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("loaded a missing catalog")
	}
}
