// Package am defines the index access-method contract of the generalized
// engine, mirroring PostgreSQL's IndexAmRoutine: an index is built over a
// heap table's vector column, lives in its own relation of slotted pages
// reached through the shared buffer pool, and answers ordered scans by
// returning heap TIDs with distances.
//
// PASE's three methods (ivfflat, ivfpq, hnsw) and the pgvector-style
// baseline register themselves here; the SQL planner resolves `USING
// <am>` clauses against this registry.
package am

import (
	"fmt"
	"sort"
	"sync"

	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/heap"
)

// Result is one index-scan hit: the heap tuple to fetch and its distance
// to the query vector.
type Result struct {
	TID  heap.TID
	Dist float32
}

// BuildContext carries everything an AM needs to build an index.
type BuildContext struct {
	Pool   *buffer.Pool // shared buffer pool
	Rel    buffer.RelID // the index's own relation (already registered)
	Table  *heap.Table  // the indexed heap table
	VecCol int          // ordinal of the Float4Array column
	Dim    int          // vector dimensionality (from the first tuple or DDL)
	Opts   map[string]string
}

// Predicate decides whether the heap tuple at tid satisfies the query's
// WHERE clause. The executor compiles it from the parsed predicate; the
// access methods call it during traversal so non-matching tuples never
// enter the result heap (in-traversal filtering). Implementations must
// be safe for the single-goroutine traversal that invokes them and are
// expected to memoize per-TID verdicts, since graph searches revisit.
type Predicate func(tid heap.TID) (bool, error)

// Query is one kNN request of a Scan: the K entries nearest to Vec,
// among the tuples satisfying Pred when it is non-nil.
type Query struct {
	Vec  []float32
	K    int
	Pred Predicate
}

// Index is a built index: the one contract every access method
// implements, mirroring the single amgettuple-style scan routine PASE
// plugs into PostgreSQL. Plain, filtered and batched kNN are one
// operator with optional arguments — a solo search is a Scan of one
// Query, an unfiltered one a Query with a nil Pred.
type Index interface {
	// AM returns the access-method name.
	AM() string
	// Insert adds one (vector, tid) entry.
	Insert(v []float32, tid heap.TID) error
	// Scan answers every query, returning for query i its K nearest
	// entries ascending by distance. opts carries the scan-time knobs; nil
	// means DefaultScanOpts(). A query with K <= 0 or a vector of the
	// wrong dimensionality fails the whole call.
	//
	// The batch contract is strict: Scan(queries, opts)[i] is
	// byte-identical to Scan(queries[i:i+1], opts)[0]. How an access
	// method shares work across a batch (the IVF chassis batch-scores
	// centroids and pins each probed bucket once; HNSW and the pgvector
	// baseline answer query by query) never shows in the rows. A Pred is
	// evaluated inside the traversal (in-traversal filtering) on the
	// single goroutine that runs the scan.
	Scan(queries []Query, opts *ScanOpts) ([][]Result, error)
	// Delete tombstones the entry for (v, tid): search stops returning it
	// immediately, Maintain reclaims it later — the standard VDBMS
	// out-of-place design (see the survey in PAPERS.md). v is the indexed
	// vector the entry was inserted with; bucketed AMs re-derive the
	// owning bucket from it deterministically. Deleting an entry the index
	// does not hold is a no-op (false, nil).
	Delete(v []float32, tid heap.TID) (bool, error)
	// DeadCount reports tombstoned entries not yet reclaimed by Maintain.
	DeadCount() int64
	// Maintain reclaims tombstones (IVF list compaction, HNSW graph
	// repair) and returns how many entries it removed. The caller must
	// hold the engine's statement gate exclusively.
	Maintain() (int64, error)
	// SizeBytes reports the on-page footprint of the index relation.
	SizeBytes() (int64, error)

	// Search is the pre-Scan solo entry point, kept only because the
	// benchmark/ module (which a code PR may not edit) calls it; every
	// implementation is SearchCompat. Delete it with the benchmark-only
	// follow-up of ROADMAP item 3 ("A2, stop replaying a stack the server
	// no longer runs").
	Search(query []float32, k int, params map[string]string) ([]Result, error)
}

// BuildFunc constructs an index over the table's current contents.
type BuildFunc func(ctx *BuildContext) (Index, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]BuildFunc)
)

// Register installs an access method under name. It panics on duplicate
// registration (a programming error).
func Register(name string, fn BuildFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("am: duplicate access method %q", name))
	}
	registry[name] = fn
}

// Lookup resolves an access method by name.
func Lookup(name string) (BuildFunc, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("am: unknown access method %q", name)
	}
	return fn, nil
}

// Names returns the registered access-method names, sorted.
//
//vetvec:test-probe the scan-contract test covers every registered access method through it
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
