// Package buffer implements a PostgreSQL-style shared buffer pool: a
// fixed set of page frames, a page table mapping (relation, block) tags
// to frames, pin/unpin reference counting, and clock-sweep victim
// selection with dirty write-back.
//
// Every tuple access in the generalized engine goes through Pool.Pin —
// the page-table lookup, pin bookkeeping, and (on miss) block I/O are the
// "Tuple Access" overhead the paper attributes to RC#2.
//
// The pool is hash-partitioned the way PostgreSQL splits its buffer
// mapping lock into NUM_BUFFER_PARTITIONS (128) independently locked
// partitions: each Tag hashes to one partition with its own mutex, page
// table, frame arena, clock hand, and counters, so concurrent queries
// touching different pages proceed without contending on a single lock.
// A single-partition pool (NewPool) reproduces the paper's global-lock
// behavior — the configuration PASE inherits and the one that serializes
// intra-query parallelism in Fig 18 — and stays the default for every
// paper experiment. Pin counts and dirty flags are atomics, so Release
// and MarkDirty never take a partition lock on the hot path (the pin
// atomics also carry the happens-before edge that publishes a writer's
// page modifications to the next pinner).
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vecstudy/internal/pg/page"
	"vecstudy/internal/pg/storage"
)

// RelID identifies a relation registered with the pool (a table or an
// index), like PostgreSQL's relfilenode.
type RelID uint32

// Tag addresses one block of one relation.
type Tag struct {
	Rel RelID
	Blk uint32
}

// Errors returned by the pool.
var (
	ErrNoUnpinned    = errors.New("buffer: no unpinned buffers available")
	ErrUnknownRel    = errors.New("buffer: relation not registered")
	ErrNotPinned     = errors.New("buffer: releasing an unpinned buffer")
	ErrPoolTooSmall  = errors.New("buffer: pool must have at least 4 frames")
	ErrPageSizeMixed = errors.New("buffer: store page size differs from pool page size")
	ErrBadPartitions = errors.New("buffer: partition count must be at least 1")
	ErrPoolPinned    = errors.New("buffer: pool has pinned buffers")
)

// DefaultPartitions is the production partition count. PostgreSQL uses
// 128 buffer-mapping partitions; 16 saturates the core counts this pool
// is run on while keeping each partition's frame arena large.
const DefaultPartitions = 16

// MaxPartitions bounds the SET buffer_partitions knob (PostgreSQL's
// NUM_BUFFER_PARTITIONS).
const MaxPartitions = 128

// Stats counts pool activity; the benchmark harness reports hit rates.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Writes    int64 // dirty write-backs
	// LockWaits counts contended partition-lock acquisitions on the Pin
	// hot path (a TryLock that failed before blocking). This is the
	// direct signal the partitioning removes: concurrent clients on a
	// single-partition pool rack these up on every tuple access, the way
	// PostgreSQL backends queue on an undersized buffer mapping lock.
	LockWaits int64
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writes += o.Writes
	s.LockWaits += o.LockWaits
}

// WALFlusher is the hook the write-ahead log registers so the pool can
// enforce WAL-before-data on dirty evictions.
type WALFlusher interface {
	// FlushTo durably writes all WAL up to and including lsn.
	FlushTo(lsn uint64) error
}

type frame struct {
	tag   Tag
	data  []byte
	pin   atomic.Int32
	usage uint8
	dirty atomic.Bool
	valid bool
}

// partition is one independently locked slice of the pool: its own page
// table, frame arena, free list, clock hand, and counters.
type partition struct {
	mu        sync.Mutex
	lockWaits atomic.Int64 // contended hot-path acquisitions (see Stats.LockWaits)
	frames    []frame
	table     map[Tag]int
	free      []int // invalid frames ready for reuse
	clockHand int
	stats     Stats
}

// lock acquires the partition mutex, counting the acquisition as
// contended when another holder forces the slow path.
func (pt *partition) lock() {
	if pt.mu.TryLock() {
		return
	}
	pt.lockWaits.Add(1)
	pt.mu.Lock()
}

// Pool is a shared, hash-partitioned buffer pool.
type Pool struct {
	pageSize int
	nframes  int
	parts    atomic.Pointer[[]*partition]

	// regMu guards the relation registry (stores, per-relation extension
	// locks, WAL hook). Lock order: partition mutexes before regMu; no
	// code path acquires a partition mutex while holding regMu.
	regMu  sync.RWMutex
	stores map[RelID]storage.PageStore
	extend map[RelID]*sync.Mutex
	wal    WALFlusher

	repartMu sync.Mutex // serializes SetPartitions
}

// NewPool creates a single-partition pool of nframes pages of pageSize
// bytes each — the paper-faithful global-lock configuration.
func NewPool(pageSize, nframes int) (*Pool, error) {
	return NewPartitionedPool(pageSize, nframes, 1)
}

// NewPartitionedPool creates a pool whose frames are split over
// partitions independently locked partitions. The count is clamped so
// every partition keeps at least 4 frames, and to MaxPartitions.
func NewPartitionedPool(pageSize, nframes, partitions int) (*Pool, error) {
	if nframes < 4 {
		return nil, ErrPoolTooSmall
	}
	if pageSize < page.MinSize || pageSize > page.MaxSize {
		return nil, fmt.Errorf("buffer: invalid page size %d", pageSize)
	}
	if partitions < 1 {
		return nil, ErrBadPartitions
	}
	p := &Pool{
		pageSize: pageSize,
		nframes:  nframes,
		stores:   make(map[RelID]storage.PageStore, 8),
		extend:   make(map[RelID]*sync.Mutex, 8),
	}
	parts := makePartitions(pageSize, nframes, clampPartitions(partitions, nframes))
	p.parts.Store(&parts)
	return p, nil
}

// clampPartitions bounds a requested partition count to [1, MaxPartitions]
// with at least 4 frames per partition.
func clampPartitions(n, nframes int) int {
	if max := nframes / 4; n > max {
		n = max
	}
	if n > MaxPartitions {
		n = MaxPartitions
	}
	if n < 1 {
		n = 1
	}
	return n
}

// makePartitions distributes nframes frames over n partitions (the first
// nframes%n partitions take one extra frame).
func makePartitions(pageSize, nframes, n int) []*partition {
	parts := make([]*partition, n)
	per, rem := nframes/n, nframes%n
	for i := range parts {
		sz := per
		if i < rem {
			sz++
		}
		pt := &partition{
			frames: make([]frame, sz),
			table:  make(map[Tag]int, sz),
			free:   make([]int, 0, sz),
		}
		for j := range pt.frames {
			pt.frames[j].data = make([]byte, pageSize)
			pt.free = append(pt.free, sz-1-j) // pop order = ascending index
		}
		parts[i] = pt
	}
	return parts
}

// partitions returns the current partition set.
func (p *Pool) partitions() []*partition {
	return *p.parts.Load()
}

// partitionFor hashes a tag to its partition (64-bit multiplicative mix,
// the moral equivalent of PostgreSQL's BufTableHashPartition).
func (p *Pool) partitionFor(tag Tag) *partition {
	parts := p.partitions()
	if len(parts) == 1 {
		return parts[0]
	}
	h := uint64(tag.Rel)*0x9E3779B97F4A7C15 ^ uint64(tag.Blk)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return parts[h%uint64(len(parts))]
}

// Partitions reports the current partition count.
func (p *Pool) Partitions() int { return len(p.partitions()) }

// PageSize returns the pool's page size.
func (p *Pool) PageSize() int { return p.pageSize }

// Register attaches a relation's page store to the pool.
func (p *Pool) Register(rel RelID, store storage.PageStore) error {
	if store.PageSize() != p.pageSize {
		return ErrPageSizeMixed
	}
	p.regMu.Lock()
	defer p.regMu.Unlock()
	p.stores[rel] = store
	if _, ok := p.extend[rel]; !ok {
		p.extend[rel] = new(sync.Mutex)
	}
	return nil
}

// store resolves a registered relation's page store.
func (p *Pool) store(rel RelID) (storage.PageStore, error) {
	p.regMu.RLock()
	store, ok := p.stores[rel]
	p.regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownRel, rel)
	}
	return store, nil
}

// storeAndExtendLock resolves a relation's store together with its
// extension lock (PostgreSQL's relation extension lock).
func (p *Pool) storeAndExtendLock(rel RelID) (storage.PageStore, *sync.Mutex, error) {
	p.regMu.RLock()
	store, ok := p.stores[rel]
	ext := p.extend[rel]
	p.regMu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownRel, rel)
	}
	return store, ext, nil
}

// SetWAL installs the WAL-before-data hook.
func (p *Pool) SetWAL(w WALFlusher) {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	p.wal = w
}

func (p *Pool) walHook() WALFlusher {
	p.regMu.RLock()
	defer p.regMu.RUnlock()
	return p.wal
}

// Stats returns a snapshot of the pool counters aggregated over all
// partitions.
func (p *Pool) Stats() Stats {
	var total Stats
	for _, pt := range p.partitions() {
		pt.mu.Lock()
		st := pt.stats
		// stats.LockWaits carries repartition history; the atomic holds
		// waits since this partition was created.
		st.LockWaits += pt.lockWaits.Load()
		pt.mu.Unlock()
		total.add(st)
	}
	return total
}

// SetPartitions re-hashes the pool into n partitions (clamped like
// NewPartitionedPool). It requires a quiescent pool — every buffer
// unpinned — and fails with ErrPoolPinned otherwise. Dirty pages are
// written back and the cache restarts cold; aggregated counters are
// preserved. This backs the SET buffer_partitions session knob.
func (p *Pool) SetPartitions(n int) error {
	if n < 1 {
		return ErrBadPartitions
	}
	n = clampPartitions(n, p.nframes)
	p.repartMu.Lock()
	defer p.repartMu.Unlock()
	old := p.partitions()
	if len(old) == n {
		return nil
	}
	for _, pt := range old {
		pt.mu.Lock()
	}
	unlock := func() {
		for _, pt := range old {
			pt.mu.Unlock()
		}
	}
	var carried Stats
	for _, pt := range old {
		for i := range pt.frames {
			if pt.frames[i].valid && pt.frames[i].pin.Load() > 0 {
				unlock()
				return fmt.Errorf("buffer: repartition with pinned buffers: %w", ErrPoolPinned)
			}
		}
	}
	for _, pt := range old {
		for i := range pt.frames {
			f := &pt.frames[i]
			if f.valid && f.dirty.Load() {
				if err := p.writeBack(f); err != nil {
					unlock()
					return err
				}
				pt.stats.Writes++
			}
		}
		st := pt.stats
		st.LockWaits += pt.lockWaits.Load()
		carried.add(st)
	}
	fresh := makePartitions(p.pageSize, p.nframes, n)
	fresh[0].stats = carried
	p.parts.Store(&fresh)
	unlock()
	return nil
}

// Buf is a pinned buffer. It must be Released exactly once; the page
// slice is only valid while pinned.
type Buf struct {
	part  *partition
	idx   int
	tag   Tag
	valid bool
}

// Page returns the pinned page contents.
func (b *Buf) Page() page.Page {
	if !b.valid {
		panic("buffer: access after Release")
	}
	return page.Page(b.part.frames[b.idx].data)
}

// Block returns the block number this buffer holds.
//
//vetvec:test-probe the pinrelease fixtures call it as a pin-borrowing use
func (b *Buf) Block() uint32 { return b.tag.Blk }

// MarkDirty flags the page as modified so eviction writes it back. It is
// lock-free: an atomic store on the frame's dirty flag.
func (b *Buf) MarkDirty() {
	if !b.valid {
		panic("buffer: MarkDirty after Release")
	}
	b.part.frames[b.idx].dirty.Store(true)
}

// Release unpins the buffer. It is lock-free: one atomic decrement,
// which also publishes the holder's page writes to the next pinner.
func (b *Buf) Release() {
	if !b.valid {
		panic("buffer: double Release")
	}
	b.valid = false
	if b.part.frames[b.idx].pin.Add(-1) < 0 {
		panic(ErrNotPinned)
	}
}

// Pin fetches (rel, blk) into the pool and returns a pinned buffer.
func (p *Pool) Pin(rel RelID, blk uint32) (*Buf, error) {
	tag := Tag{Rel: rel, Blk: blk}
	pt := p.partitionFor(tag)
	pt.lock()
	if idx, ok := pt.table[tag]; ok {
		f := &pt.frames[idx]
		f.pin.Add(1)
		if f.usage < 5 {
			f.usage++
		}
		pt.stats.Hits++
		pt.mu.Unlock()
		return &Buf{part: pt, idx: idx, tag: tag, valid: true}, nil
	}
	pt.stats.Misses++
	store, err := p.store(rel)
	if err != nil {
		pt.mu.Unlock()
		return nil, err
	}
	idx, err := p.victimLocked(pt)
	if err != nil {
		pt.mu.Unlock()
		return nil, err
	}
	f := &pt.frames[idx]
	// The read happens under pt.mu by design: releasing it here would
	// need PostgreSQL's IO_IN_PROGRESS protocol (per-frame I/O locks and
	// a wait queue) to stop a concurrent Pin of the same tag from seeing
	// a half-filled frame. The partition split exists precisely to keep
	// this hold tolerable; RC#3 measures what remains.
	//vetvec:locked-io
	if err := store.ReadBlock(blk, f.data); err != nil {
		// Leave the frame invalid with a cleared tag and back on the free
		// list, so a stale Tag can never alias a future hit.
		f.tag = Tag{}
		f.valid = false
		pt.free = append(pt.free, idx)
		pt.mu.Unlock()
		return nil, fmt.Errorf("buffer: read %v: %w", tag, err)
	}
	f.tag = tag
	f.pin.Store(1)
	f.usage = 1
	f.dirty.Store(false)
	f.valid = true
	pt.table[tag] = idx
	pt.mu.Unlock()
	return &Buf{part: pt, idx: idx, tag: tag, valid: true}, nil
}

// NewPage extends the relation by one block and returns it pinned and
// zero-initialized (callers run page.Init). The victim frame is secured
// before the store grows, so a failed victim search can never leave the
// relation with an orphan, never-initialized block; the per-relation
// extension lock makes the predicted block number authoritative.
func (p *Pool) NewPage(rel RelID) (*Buf, uint32, error) {
	store, ext, err := p.storeAndExtendLock(rel)
	if err != nil {
		return nil, 0, err
	}
	ext.Lock()
	defer ext.Unlock()
	blk := store.NumBlocks() // the block Extend will create
	tag := Tag{Rel: rel, Blk: blk}
	pt := p.partitionFor(tag)
	pt.lock()
	idx, err := p.victimLocked(pt)
	if err != nil {
		pt.mu.Unlock()
		return nil, 0, err
	}
	// Extend runs under both the relation extension lock and pt.mu by
	// design: the predicted block number is only authoritative while no
	// other extender can run, and the victim frame must stay reserved
	// across the grow. PostgreSQL serializes relation extension the same
	// way (the relation extension lock).
	//vetvec:locked-io
	got, err := store.Extend()
	if err != nil {
		pt.free = append(pt.free, idx)
		pt.mu.Unlock()
		return nil, 0, err
	}
	if got != blk {
		pt.free = append(pt.free, idx)
		pt.mu.Unlock()
		return nil, 0, fmt.Errorf("buffer: store extended to block %d, expected %d (store modified outside the pool?)", got, blk)
	}
	f := &pt.frames[idx]
	for i := range f.data {
		f.data[i] = 0
	}
	f.tag = tag
	f.pin.Store(1)
	f.usage = 1
	f.dirty.Store(true)
	f.valid = true
	pt.table[tag] = idx
	pt.mu.Unlock()
	return &Buf{part: pt, idx: idx, tag: tag, valid: true}, blk, nil
}

// victimLocked pops a free frame if one exists, otherwise runs the clock
// sweep: decrement usage counts of unpinned frames until one reaches
// zero, evicting (with write-back) as needed. The returned frame is
// invalid and owned by the caller, who must either install a page in it
// or push it back onto the free list. pt.mu must be held.
func (p *Pool) victimLocked(pt *partition) (int, error) {
	if n := len(pt.free); n > 0 {
		idx := pt.free[n-1]
		pt.free = pt.free[:n-1]
		return idx, nil
	}
	n := len(pt.frames)
	for spins := 0; spins < 2*n*6; spins++ {
		idx := pt.clockHand
		pt.clockHand = (pt.clockHand + 1) % n
		f := &pt.frames[idx]
		if f.pin.Load() > 0 {
			continue
		}
		if f.usage > 0 {
			f.usage--
			continue
		}
		if f.dirty.Load() {
			if err := p.writeBack(f); err != nil {
				return 0, err
			}
			pt.stats.Writes++
		}
		delete(pt.table, f.tag)
		f.tag = Tag{}
		f.valid = false
		pt.stats.Evictions++
		return idx, nil
	}
	return 0, ErrNoUnpinned
}

// writeBack flushes one dirty frame to its store, honouring
// WAL-before-data when a WAL is attached. The frame's partition mutex
// must be held. The dirty flag is cleared before the write and restored
// on failure, so a concurrent MarkDirty during the write is never lost.
func (p *Pool) writeBack(f *frame) error {
	store, err := p.store(f.tag.Rel)
	if err != nil {
		return err
	}
	if w := p.walHook(); w != nil {
		if lsn := page.Page(f.data).LSN(); lsn > 0 {
			if err := w.FlushTo(lsn); err != nil {
				return err
			}
		}
	}
	f.dirty.Store(false)
	if err := store.WriteBlock(f.tag.Blk, f.data); err != nil {
		f.dirty.Store(true)
		return err
	}
	return nil
}

// FlushAll writes back every dirty page (checkpoint).
func (p *Pool) FlushAll() error {
	for _, pt := range p.partitions() {
		pt.mu.Lock()
		for i := range pt.frames {
			f := &pt.frames[i]
			if f.valid && f.dirty.Load() {
				if err := p.writeBack(f); err != nil {
					pt.mu.Unlock()
					return err
				}
				pt.stats.Writes++
			}
		}
		pt.mu.Unlock()
	}
	return nil
}

// NumBlocks returns the block count of a registered relation.
func (p *Pool) NumBlocks(rel RelID) (uint32, error) {
	store, err := p.store(rel)
	if err != nil {
		return 0, err
	}
	return store.NumBlocks(), nil
}
