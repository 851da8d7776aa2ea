package buffer

import (
	"errors"
	"testing"

	"vecstudy/internal/pg/page"
	"vecstudy/internal/pg/storage"
)

// failingStore wraps a PageStore and injects errors into selected calls.
type failingStore struct {
	storage.PageStore
	failRead   bool
	failExtend bool
}

var errInjected = errors.New("injected store failure")

func (s *failingStore) ReadBlock(blk uint32, buf []byte) error {
	if s.failRead {
		return errInjected
	}
	return s.PageStore.ReadBlock(blk, buf)
}

func (s *failingStore) Extend() (uint32, error) {
	if s.failExtend {
		return 0, errInjected
	}
	return s.PageStore.Extend()
}

// addPage appends one initialized page carrying payload b.
func addPage(t *testing.T, p *Pool, rel RelID, b byte) uint32 {
	t.Helper()
	buf, blk, err := p.NewPage(rel)
	if err != nil {
		t.Fatal(err)
	}
	page.Init(buf.Page(), 0)
	if _, err := buf.Page().AddItem([]byte{b}); err != nil {
		t.Fatal(err)
	}
	buf.MarkDirty()
	buf.Release()
	return blk
}

// Regression: NewPage used to call store.Extend() before selecting a
// victim frame; when every frame was pinned the relation was left with an
// orphan, never-initialized block that later full scans read as garbage.
func TestNewPageVictimFailureDoesNotExtend(t *testing.T) {
	p, err := NewPool(testPageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	rel1, rel2 := RelID(1), RelID(2)
	store1 := storage.NewMemStore(testPageSize)
	store2 := storage.NewMemStore(testPageSize)
	if err := p.Register(rel1, store1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(rel2, store2); err != nil {
		t.Fatal(err)
	}
	var pinned []*Buf
	for i := 0; i < 4; i++ {
		buf, _, err := p.NewPage(rel1)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, buf)
	}
	if _, _, err := p.NewPage(rel2); !errors.Is(err, ErrNoUnpinned) {
		t.Fatalf("NewPage with all frames pinned: %v", err)
	}
	if n := store2.NumBlocks(); n != 0 {
		t.Errorf("failed NewPage left %d orphan block(s) in the store", n)
	}
	for _, b := range pinned {
		b.Release()
	}
}

// NewPage must also release its reserved victim frame when Extend fails,
// instead of leaking it.
func TestNewPageExtendFailureReleasesFrame(t *testing.T) {
	p, err := NewPool(testPageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := &failingStore{PageStore: storage.NewMemStore(testPageSize), failExtend: true}
	if err := p.Register(1, fs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := p.NewPage(1); !errors.Is(err, errInjected) {
			t.Fatalf("NewPage: %v", err)
		}
	}
	// All four frames must still be allocatable.
	fs.failExtend = false
	var bufs []*Buf
	for i := 0; i < 4; i++ {
		buf, _, err := p.NewPage(1)
		if err != nil {
			t.Fatalf("frame leaked by failed NewPage: %v", err)
		}
		bufs = append(bufs, buf)
	}
	for _, b := range bufs {
		b.Release()
	}
}

// Regression: a failed ReadBlock on the Pin miss path must leave the
// victim frame with a cleared tag (and back on the free list), so a stale
// Tag can never alias a future hit.
func TestPinReadErrorClearsFrameTag(t *testing.T) {
	p, err := NewPool(testPageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := &failingStore{PageStore: storage.NewMemStore(testPageSize)}
	if err := p.Register(1, fs); err != nil {
		t.Fatal(err)
	}
	blk := addPage(t, p, 1, 7)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	fs.failRead = true
	if _, err := p.Pin(1, blk+100); err == nil {
		t.Fatal("Pin with failing store succeeded")
	}
	for _, pt := range p.partitions() {
		pt.mu.Lock()
		for i := range pt.frames {
			f := &pt.frames[i]
			if !f.valid && f.tag != (Tag{}) {
				t.Errorf("invalid frame %d retains stale tag %+v", i, f.tag)
			}
		}
		pt.mu.Unlock()
	}

	// The pool must stay fully usable: the failed miss may not consume a
	// frame or corrupt the resident page.
	fs.failRead = false
	buf, err := p.Pin(1, blk)
	if err != nil {
		t.Fatal(err)
	}
	item, err := buf.Page().Item(1)
	if err != nil || item[0] != 7 {
		t.Fatalf("resident page corrupted after failed Pin: %v %v", item, err)
	}
	buf.Release()
}

func TestPartitionedPoolRoundTrip(t *testing.T) {
	p, err := NewPartitionedPool(testPageSize, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Partitions(); got != 8 {
		t.Fatalf("Partitions() = %d, want 8", got)
	}
	store := storage.NewMemStore(testPageSize)
	if err := p.Register(1, store); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		addPage(t, p, 1, byte(i))
	}
	for i := 0; i < n; i++ {
		buf, err := p.Pin(1, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		item, err := buf.Page().Item(1)
		if err != nil || item[0] != byte(i) {
			t.Fatalf("block %d: item %v err %v", i, item, err)
		}
		buf.Release()
	}
	if st := p.Stats(); st.Hits == 0 {
		t.Errorf("no hits recorded across partitions: %+v", st)
	}
}

func TestPartitionClamping(t *testing.T) {
	// 8 frames can hold at most 2 partitions of 4 frames.
	p, err := NewPartitionedPool(testPageSize, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Partitions(); got != 2 {
		t.Errorf("Partitions() = %d, want clamp to 2", got)
	}
	if _, err := NewPartitionedPool(testPageSize, 8, 0); !errors.Is(err, ErrBadPartitions) {
		t.Errorf("partitions=0: %v", err)
	}
}

func TestSetPartitionsRepartitions(t *testing.T) {
	p, rel, store := newPoolWithRel(t, 32)
	const n = 10
	for i := 0; i < n; i++ {
		addPage(t, p, rel, byte(i))
	}
	statsBefore := p.Stats()

	// Pinned pool refuses to repartition.
	buf, err := p.Pin(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetPartitions(4); !errors.Is(err, ErrPoolPinned) {
		t.Fatalf("SetPartitions with pinned buffer: %v", err)
	}
	buf.Release()

	if err := p.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	if got := p.Partitions(); got != 4 {
		t.Fatalf("Partitions() = %d, want 4", got)
	}
	// Counters carry over and dirty pages reached the store.
	if st := p.Stats(); st.Misses < statsBefore.Misses {
		t.Errorf("stats lost on repartition: %+v < %+v", st, statsBefore)
	}
	if store.NumBlocks() != n {
		t.Fatalf("store has %d blocks, want %d", store.NumBlocks(), n)
	}
	for i := 0; i < n; i++ {
		buf, err := p.Pin(rel, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		item, err := buf.Page().Item(1)
		if err != nil || item[0] != byte(i) {
			t.Fatalf("block %d after repartition: %v %v", i, item, err)
		}
		buf.Release()
	}
	// Back to the paper-faithful single lock.
	if err := p.SetPartitions(1); err != nil {
		t.Fatal(err)
	}
	if got := p.Partitions(); got != 1 {
		t.Errorf("Partitions() = %d, want 1", got)
	}
}
