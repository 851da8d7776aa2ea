// Package ivf is the one inverted-file engine behind the PASE-style
// ivfflat, ivfpq and ivfsq8 access methods. The paper's IVF_FLAT and
// IVF_PQ are a single page structure — a meta page, centroid pages whose
// entries carry head/tail pointers to their bucket, and per-bucket
// chains of data pages — with two entry encodings; this package owns
// that structure and every mechanism over it (build, insert, probe
// selection, the bucket-chain walker, the top-k policy switch, filtered
// and multi-query scans, tombstone delete, chain compaction, open), and
// takes the encoding as a Codec.
//
// Faithful PASE behaviours the study measures, and where they live:
//
//   - RC#1: the adding phase assigns vectors with plain scalar distance
//     loops on the pinned ref kernel (nearestCentroid).
//   - RC#2: every bucket scan pins pages through the shared buffer pool
//     and locates entries via line pointers (walk).
//   - RC#3: threads > 1 pushes candidates from all workers into one
//     lock-guarded heap (scanParallel).
//   - RC#5: centroids come from the PASE-flavour K-means (Build).
//   - RC#6: serial top-k uses a size-n collector unless heap=k (sink).
//   - RC#7: IVF_PQ rebuilds its distance table per probed bucket — the
//     Scorer.Bucket hook, implemented by the ivfpq codec.
//
// The seam is per page, never per tuple: the walker hands the codec a
// slice of entry views into pinned frames, so each codec keeps its batch
// kernel (one L2SqrNTRows per segment, one DotSQ8Batch per page) and the
// interface call is amortized over the page.
package ivf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/pase"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/vec"
)

// Codec is the quantizer seam: what one data entry stores after its
// packed TID and how it is scored. The chassis serializes Train, Encode
// and Unmarshal calls; NewScorer may be called concurrently.
type Codec interface {
	// Name is the access-method name ("ivfflat"); it prefixes errors.
	Name() string
	// Train fits the codec to the heap's vectors (row-major, dim wide)
	// given the trained coarse centroids; opts are the WITH options.
	Train(opts map[string]string, data []float32, dim int, centroids []float32) error
	// Marshal returns the trained state as page items, persisted verbatim
	// on the aux pages that follow the centroid pages; Unmarshal restores
	// it on Open. A codec with no state returns nil.
	Marshal() [][]byte
	Unmarshal(dim int, items [][]byte) error
	// PayloadSize is the byte length of an entry's payload; valid after
	// Train or Unmarshal.
	PayloadSize() int
	// Encode writes x's payload, given the centroid of its bucket.
	Encode(x, centroid []float32, payload []byte)
	// Rerank reports that payload distances are approximate, so the best
	// k·β candidates (β is am.ScanOpts.Rerank) are re-scored against the
	// heap vectors; false means payload distances are final.
	Rerank() bool
	// NewScorer prepares scoring for a batch of queries (a solo search is
	// a batch of one).
	NewScorer(kern vec.Kernel, queries []am.Query) Scorer
}

// Scorer scores data entries against the queries of its batch, addressed
// by batch index.
type Scorer interface {
	// Bucket announces the bucket whose entries the following Score calls
	// carry, and every query that will be scored against it.
	Bucket(centroid []float32, qs []int)
	// Score writes the distance between entries[t]'s payload and query
	// qs[s] into out[t*len(qs)+s]. An entry is its EntryHeaderSize header
	// bytes followed by the payload — the codec skips the header in the
	// pass that shapes the views for its kernel, so the chassis makes no
	// pass of its own. Entries alias pinned pages: they are valid only
	// during the call. sparse reports that the entries are the survivors of
	// a predicate rather than a whole page or segment, for a codec whose
	// dense and sparse scoring forms differ.
	Score(entries [][]byte, qs []int, sparse bool, out []float32)
}

// BuildStats reports the construction phases of Figs 3–6.
type BuildStats struct {
	TrainTime time.Duration
	AddTime   time.Duration
	NAdded    int
}

// Index is a built IVF index over one codec.
type Index struct {
	ctx   *am.BuildContext
	codec Codec
	meta  meta

	// centroids holds the centroid vectors read once at build/open; PASE
	// similarly keeps centroid buffers pinned since access is sequential.
	// Probe selection and bucket assignment are never quantized.
	centroids []float32

	mu    sync.Mutex   // serializes inserts, deletes and compaction
	entry []byte       // appendEntry's encode buffer, guarded by mu
	dead  atomic.Int64 // tombstoned entries awaiting Maintain

	stats BuildStats
}

var _ am.Index = (*Index)(nil)

// AM implements am.Index.
func (ix *Index) AM() string { return ix.codec.Name() }

// Stats returns the build phase timings.
func (ix *Index) Stats() BuildStats { return ix.stats }

// NList returns the number of buckets.
func (ix *Index) NList() int { return int(ix.meta.NList) }

// Centroids returns the trained centroid matrix (NList×Dim) — the hook
// the Fig 15 experiment uses to transplant PASE's clustering into Faiss*.
func (ix *Index) Centroids() []float32 { return ix.centroids }

func (ix *Index) errorf(format string, args ...any) error {
	return fmt.Errorf("pase/"+ix.codec.Name()+": "+format, args...)
}

// Build trains centroids and the codec over the table's vectors and
// bulk-loads every row into its bucket. Options: clusters (c),
// sample_ratio (sr), seed, plus whatever the codec reads.
func Build(ctx *am.BuildContext, codec Codec) (*Index, error) {
	ix := &Index{ctx: ctx, codec: codec}
	nlist, err := pase.OptInt(ctx.Opts, "clusters", 256)
	if err != nil {
		return nil, err
	}
	sr, err := pase.OptFloat(ctx.Opts, "sample_ratio", 0.01)
	if err != nil {
		return nil, err
	}
	seed, err := pase.OptInt(ctx.Opts, "seed", 0)
	if err != nil {
		return nil, err
	}
	if nlist <= 0 {
		return nil, ix.errorf("clusters must be positive")
	}

	// Phase 0: scan the heap to materialize (tid, vector) pairs. PASE's
	// ambuild does the same underlying table scan through the buffer pool.
	start := time.Now()
	var tids []heap.TID
	data := vec.NewFlat(ctx.Dim, 1024)
	err = ctx.Table.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		v, err := ctx.Table.Schema().VectorAt(tup, ctx.VecCol)
		if err != nil {
			return false, err
		}
		if len(v) != ctx.Dim {
			return false, ix.errorf("row %v has dimension %d, index expects %d", tid, len(v), ctx.Dim)
		}
		tids = append(tids, tid)
		data.Append(v)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	n := data.N()
	if n < nlist {
		return nil, ix.errorf("%d rows cannot form %d clusters", n, nlist)
	}

	// Training phase: PASE-flavour K-means, naive distance kernels.
	res, err := kmeans.Train(data.Data, n, ctx.Dim, kmeans.Config{
		K:           nlist,
		Seed:        int64(seed),
		SampleRatio: sr,
		UseGemm:     false, // RC#1: PASE has no SGEMM path
		Threads:     1,     // RC#3: PASE builds single-threaded
		Flavor:      kmeans.FlavorPASE,
	})
	if err != nil {
		return nil, err
	}
	if err := codec.Train(ctx.Opts, data.Data, ctx.Dim, res.Centroids); err != nil {
		return nil, err
	}
	trainTime := time.Since(start)

	// Write the index structure, then the adding phase: assign each
	// vector with naive scalar loops and append it to its bucket through
	// the buffer manager.
	addStart := time.Now()
	if err := ix.initPages(res.Centroids, nlist); err != nil {
		return nil, err
	}
	d := ctx.Dim
	for i := 0; i < n; i++ {
		x := data.Data[i*d : (i+1)*d]
		if err := ix.appendEntry(ix.nearestCentroid(x), x, tids[i]); err != nil {
			return nil, err
		}
	}
	ix.stats = BuildStats{TrainTime: trainTime, AddTime: time.Since(addStart), NAdded: n}
	return ix, nil
}

// Open re-binds an existing index relation (e.g., after restart),
// reloading the centroids and the codec's persisted state.
func Open(ctx *am.BuildContext, codec Codec) (*Index, error) {
	ix := &Index{ctx: ctx, codec: codec}
	buf, err := ctx.Pool.Pin(ctx.Rel, 0)
	if err != nil {
		return nil, err
	}
	item, err := buf.Page().Item(1)
	if err != nil {
		buf.Release()
		return nil, ix.errorf("reading meta page: %w", err)
	}
	ix.meta = decodeMeta(item)
	buf.Release()
	if int(ix.meta.Dim) != ctx.Dim {
		return nil, ix.errorf("index dim %d != table dim %d", ix.meta.Dim, ctx.Dim)
	}
	if err := ix.loadPages(); err != nil {
		return nil, err
	}
	return ix, nil
}

// refKern is the fixed reference kernel for bucket assignment: Insert
// and Delete must re-derive the same bucket for a vector regardless of
// the session's SET distance_kernel, so assignment arithmetic is pinned
// here and never dispatched. Assignment runs on the full-precision
// vector, never on its code.
var refKern = vec.Ref()

// nearestCentroid runs the PASE-style scalar argmin over all centroids.
func (ix *Index) nearestCentroid(x []float32) int {
	best, bestD := 0, refKern.L2Sqr(x, ix.centroid(0))
	for c := 1; c < int(ix.meta.NList); c++ {
		if dd := refKern.L2Sqr(x, ix.centroid(c)); dd < bestD {
			best, bestD = c, dd
		}
	}
	return best
}

func (ix *Index) centroid(cid int) []float32 {
	d := int(ix.meta.Dim)
	return ix.centroids[cid*d : (cid+1)*d]
}

// checkDim rejects a vector whose dimensionality is not the index's;
// what names the operation for the error text.
func (ix *Index) checkDim(what string, v []float32) error {
	if len(v) != int(ix.meta.Dim) {
		return ix.errorf("%s dimension %d != %d", what, len(v), ix.meta.Dim)
	}
	return nil
}

// CheckQuery is the one argument check of every scan entry point: the
// query must have the index's dimensionality and k must be positive.
func (ix *Index) CheckQuery(query []float32, k int) error {
	if err := ix.checkDim("query", query); err != nil {
		return err
	}
	if k <= 0 {
		return ix.errorf("k must be positive")
	}
	return nil
}

// Insert implements am.Index.
func (ix *Index) Insert(v []float32, tid heap.TID) error {
	if err := ix.checkDim("insert", v); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.appendEntry(ix.nearestCentroid(v), v, tid); err != nil {
		return err
	}
	ix.stats.NAdded++
	return nil
}

// SizeBytes reports the index relation's page footprint (pages × page
// size), the way Figs 11–12 measure on-disk index size.
func (ix *Index) SizeBytes() (int64, error) {
	nblocks, err := ix.ctx.Pool.NumBlocks(ix.ctx.Rel)
	if err != nil {
		return 0, err
	}
	return int64(nblocks) * int64(ix.ctx.Pool.PageSize()), nil
}

// Assignments maps every indexed TID to its bucket (Fig 15 transplant).
func (ix *Index) Assignments() (map[heap.TID]int32, error) {
	out := make(map[heap.TID]int32, ix.stats.NAdded)
	var w chainWalk
	for cid := int32(0); cid < int32(ix.meta.NList); cid++ {
		err := ix.walk(cid, &w, true, func(entries [][]byte) error {
			for _, e := range entries {
				out[heap.UnpackTID(e)] = cid
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
