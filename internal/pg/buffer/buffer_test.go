package buffer

import (
	"sync"
	"testing"

	"vecstudy/internal/pg/page"
	"vecstudy/internal/pg/storage"
)

const testPageSize = 1024

func newPoolWithRel(t *testing.T, frames int) (*Pool, RelID, *storage.MemStore) {
	t.Helper()
	p, err := NewPool(testPageSize, frames)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMemStore(testPageSize)
	if err := p.Register(1, store); err != nil {
		t.Fatal(err)
	}
	return p, 1, store
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(testPageSize, 2); err != ErrPoolTooSmall {
		t.Errorf("small pool: %v", err)
	}
	if _, err := NewPool(17, 8); err == nil {
		t.Error("accepted bogus page size")
	}
}

func TestRegisterPageSizeMismatch(t *testing.T) {
	p, _ := NewPool(testPageSize, 8)
	if err := p.Register(9, storage.NewMemStore(2048)); err != ErrPageSizeMixed {
		t.Errorf("mixed page sizes: %v", err)
	}
}

func TestNewPageAndPinRoundTrip(t *testing.T) {
	p, rel, _ := newPoolWithRel(t, 8)
	buf, blk, err := p.NewPage(rel)
	if err != nil {
		t.Fatal(err)
	}
	page.Init(buf.Page(), 0)
	if _, err := buf.Page().AddItem([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf.MarkDirty()
	buf.Release()

	got, err := p.Pin(rel, blk)
	if err != nil {
		t.Fatal(err)
	}
	item, err := got.Page().Item(1)
	if err != nil || string(item) != "hello" {
		t.Fatalf("item %q err %v", item, err)
	}
	got.Release()
}

func TestPinUnknownRelation(t *testing.T) {
	p, _ := NewPool(testPageSize, 8)
	if _, err := p.Pin(42, 0); err == nil {
		t.Error("pin of unregistered relation succeeded")
	}
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	p, rel, store := newPoolWithRel(t, 4)
	// Create more pages than frames; each write must survive eviction.
	const n = 12
	for i := 0; i < n; i++ {
		buf, _, err := p.NewPage(rel)
		if err != nil {
			t.Fatal(err)
		}
		page.Init(buf.Page(), 0)
		if _, err := buf.Page().AddItem([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		buf.MarkDirty()
		buf.Release()
	}
	// Every page must be readable with its own payload.
	for i := 0; i < n; i++ {
		buf, err := p.Pin(rel, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		item, err := buf.Page().Item(1)
		if err != nil || item[0] != byte(i) {
			t.Fatalf("block %d: item %v err %v", i, item, err)
		}
		buf.Release()
	}
	st := p.Stats()
	if st.Evictions == 0 || st.Writes == 0 {
		t.Errorf("expected evictions and write-backs, got %+v", st)
	}
	if store.NumBlocks() != n {
		t.Errorf("store has %d blocks, want %d", store.NumBlocks(), n)
	}
}

func TestAllPinnedFails(t *testing.T) {
	p, rel, _ := newPoolWithRel(t, 4)
	var bufs []*Buf
	for i := 0; i < 4; i++ {
		buf, _, err := p.NewPage(rel)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, buf)
	}
	if _, _, err := p.NewPage(rel); err != ErrNoUnpinned {
		t.Errorf("overcommit: %v", err)
	}
	for _, b := range bufs {
		b.Release()
	}
	// After releasing, allocation works again.
	buf, _, err := p.NewPage(rel)
	if err != nil {
		t.Fatal(err)
	}
	buf.Release()
}

func TestDoubleReleasePanics(t *testing.T) {
	p, rel, _ := newPoolWithRel(t, 8)
	buf, _, err := p.NewPage(rel)
	if err != nil {
		t.Fatal(err)
	}
	buf.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	buf.Release()
}

func TestHitMissAccounting(t *testing.T) {
	p, rel, _ := newPoolWithRel(t, 8)
	buf, blk, _ := p.NewPage(rel)
	page.Init(buf.Page(), 0)
	buf.MarkDirty()
	buf.Release()
	before := p.Stats()
	for i := 0; i < 5; i++ {
		b, err := p.Pin(rel, blk)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	after := p.Stats()
	if after.Hits-before.Hits != 5 {
		t.Errorf("hits delta = %d, want 5", after.Hits-before.Hits)
	}
}

func TestConcurrentPinners(t *testing.T) {
	p, rel, _ := newPoolWithRel(t, 16)
	const nPages = 32
	for i := 0; i < nPages; i++ {
		buf, _, err := p.NewPage(rel)
		if err != nil {
			t.Fatal(err)
		}
		page.Init(buf.Page(), 0)
		if _, err := buf.Page().AddItem([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		buf.MarkDirty()
		buf.Release()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				blk := uint32((i*7 + w) % nPages)
				buf, err := p.Pin(rel, blk)
				if err != nil {
					errs <- err
					return
				}
				item, err := buf.Page().Item(1)
				if err != nil || item[0] != byte(blk) {
					buf.Release()
					errs <- err
					return
				}
				buf.Release()
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestFlushAllWritesBack(t *testing.T) {
	p, rel, store := newPoolWithRel(t, 8)
	buf, blk, _ := p.NewPage(rel)
	page.Init(buf.Page(), 0)
	buf.Page().AddItem([]byte("persist me"))
	buf.MarkDirty()
	buf.Release()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, testPageSize)
	if err := store.ReadBlock(blk, raw); err != nil {
		t.Fatal(err)
	}
	item, err := page.Page(raw).Item(1)
	if err != nil || string(item) != "persist me" {
		t.Fatalf("store content after flush: %q, %v", item, err)
	}
}

type recordingWAL struct{ flushedTo uint64 }

func (w *recordingWAL) FlushTo(lsn uint64) error {
	if lsn > w.flushedTo {
		w.flushedTo = lsn
	}
	return nil
}

func TestWALBeforeData(t *testing.T) {
	p, rel, _ := newPoolWithRel(t, 4)
	w := &recordingWAL{}
	p.SetWAL(w)
	// Dirty a page with an LSN, then force its eviction.
	buf, _, _ := p.NewPage(rel)
	page.Init(buf.Page(), 0)
	buf.Page().SetLSN(777)
	buf.MarkDirty()
	buf.Release()
	for i := 0; i < 8; i++ {
		b, _, err := p.NewPage(rel)
		if err != nil {
			t.Fatal(err)
		}
		page.Init(b.Page(), 0)
		b.Release()
	}
	if w.flushedTo < 777 {
		t.Errorf("dirty eviction did not flush WAL to page LSN: flushed %d", w.flushedTo)
	}
}
