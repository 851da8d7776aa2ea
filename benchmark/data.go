package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"vecstudy/internal/dataset"
	"vecstudy/internal/minheap"
	"vecstudy/internal/vec"
)

// corpus is everything the benchmark generates from the seed. The engine
// only ever sees the SQL text rendered from it.
type corpus struct {
	ds      *dataset.Dataset // Base holds the workload's rows; row i has id i, attr i % 100
	stmts   []stmt           // the kNN statements readers cycle through
	inserts []string         // multi-row INSERTs that load the table
}

// stmt is one kNN statement. bound > 0 adds WHERE attr < bound.
type stmt struct {
	sql   string
	query []float32
	bound int
}

// filterBounds are the selectivity classes of filtered_mix: 1%, 10%, 50%,
// 75% and 90% of the rows, which the auto planner sends to pre-filter,
// in-traversal and, the last three, post-filter. Three of five classes
// share a strategy so that the median statement lies inside that class and
// not on the boundary between two strategies a millisecond apart, where
// p50_ms would flip from run to run.
var filterBounds = []int{1, 10, 50, 75, 90}

func attrOf(id int) int { return id % 100 }

// poolSeed fixes the table. A real corpus such as SIFT1M is one fixed set
// of points, and what stands in for it here is the sift1m-profile Gaussian
// mixture of internal/dataset at this seed: a workload's table is its first
// rows, the same on every run. The benchmark's seed draws what is asked of
// that table: which 200 of the 400 query vectors, and the writer's schedule.
// Drawing the rows from the seed as well was tried and dropped: k-means finds
// other clusters in every sample, tuples scored per query moved by ±8%, and
// with them every latency — more than any bound one would want to set.
const poolSeed = 20240

// newCorpus makes the workload's table and draws its query vectors.
func newCorpus(w workload, rows int, seed int64) (*corpus, error) {
	prof, err := dataset.ProfileByName("sift1m")
	if err != nil {
		return nil, err
	}
	// The generator scales rows and queries together: 400 queries come with
	// 40,000 rows, of which the table keeps the first.
	ds := dataset.Generate(prof, dataset.GenOptions{Scale: 2 * float64(fullRows) / float64(prof.FullN), Seed: poolSeed})
	if rows > ds.N() || ds.NQ() != 2*numQueries {
		return nil, fmt.Errorf("corpus: want %d rows and %d queries, generated %d and %d", rows, 2*numQueries, ds.N(), ds.NQ())
	}
	ds.Base.Data = append([]float32(nil), ds.Base.Data[:rows*ds.Dim]...) // lets go of the rows not kept
	rng := rand.New(rand.NewSource(seed))
	queries := vec.NewFlat(ds.Dim, numQueries)
	for _, q := range rng.Perm(ds.NQ())[:numQueries] {
		queries.Append(ds.Queries.Row(q))
	}
	ds.Queries = queries
	c := &corpus{ds: ds}

	for q := 0; q < numQueries; q++ {
		st := stmt{query: ds.Queries.Row(q)}
		where := ""
		if w.filtered {
			st.bound = filterBounds[q%len(filterBounds)]
			where = fmt.Sprintf("WHERE attr < %d ", st.bound)
		}
		st.sql = fmt.Sprintf("SELECT id, distance FROM t %sORDER BY vec <-> '%s' LIMIT %d", where, vecLiteral(st.query), topK)
		c.stmts = append(c.stmts, st)
	}

	const perInsert = 200
	var b strings.Builder
	for lo := 0; lo < rows; lo += perInsert {
		b.Reset()
		b.WriteString("INSERT INTO t VALUES ")
		for id := lo; id < lo+perInsert && id < rows; id++ {
			if id > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%d,'%s')", id, attrOf(id), vecLiteral(ds.Base.Row(id)))
		}
		c.inserts = append(c.inserts, b.String())
	}
	return c, nil
}

func vecLiteral(v []float32) string {
	b := make([]byte, 0, 12*len(v))
	b = append(b, '{')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return string(append(b, '}'))
}

// model is the benchmark's own picture of the table: model[id] is the
// row's current vector, nil once the row is deleted.
type model [][]float32

func (c *corpus) initialModel() model {
	m := make(model, c.ds.N())
	for id := range m {
		m[id] = c.ds.Base.Row(id)
	}
	return m
}

func (m model) liveIDs() map[int]bool {
	live := make(map[int]bool, len(m))
	for id, v := range m {
		if v != nil {
			live[id] = true
		}
	}
	return live
}

// refKernel pins ground truth to the scalar reference arithmetic, so a
// recall number never moves with the kernels a host registers.
var refKernel = vec.Ref()

// exactTopK is brute-force ground truth over the rows a statement may see.
func (m model) exactTopK(st stmt) []int {
	top := minheap.NewTopK(topK)
	for id, v := range m {
		if v == nil || (st.bound > 0 && attrOf(id) >= st.bound) {
			continue
		}
		top.Push(int64(id), refKernel.L2Sqr(st.query, v))
	}
	items := top.Results()
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = int(it.ID)
	}
	return ids
}

// recallOf is |got ∩ truth| / |truth|.
func recallOf(got, truth []int) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[int]bool, len(truth))
	for _, id := range truth {
		in[id] = true
	}
	hits := 0
	for _, id := range got {
		if in[id] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}

// writeOp is one statement of the churn writer's schedule.
type writeOp struct {
	kind byte // 'I', 'D' or 'U'
	sql  string
	due  time.Duration // from the start of the window
}

const (
	writeRate   = 50  // statements per second
	vacuumEvery = 250 // writes between VACUUMs
)

// churnSchedule draws the writer's statements — 50% INSERT, 30% DELETE by
// id, 20% UPDATE of the vector by id — and applies them to m, which ends
// up as the table the engine must hold once every statement has run. The
// schedule depends on the seed alone, never on timing, because the writer
// sends every statement in order however late it runs.
func churnSchedule(c *corpus, m *model, seed int64, seconds float64) (ops []writeOp, userBytes int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	live := make([]int, 0, len(*m))
	for id, v := range *m {
		if v != nil {
			live = append(live, id)
		}
	}
	dim := c.ds.Dim
	rowBytes := int64(4*dim + 8)
	freshVec := func() []float32 {
		src := c.ds.Base.Row(rng.Intn(c.ds.N()))
		v := make([]float32, dim)
		for j := range v {
			v[j] = src[j] + float32(rng.NormFloat64()*4)
		}
		return v
	}
	n := int(writeRate * seconds)
	for i := 0; i < n; i++ {
		op := writeOp{due: time.Duration(float64(i) / writeRate * float64(time.Second))}
		switch r := rng.Intn(10); {
		case r < 5 || len(live) < 2*topK:
			id := len(*m)
			v := freshVec()
			*m = append(*m, v)
			live = append(live, id)
			op.kind, op.sql = 'I', fmt.Sprintf("INSERT INTO t VALUES (%d,%d,'%s')", id, attrOf(id), vecLiteral(v))
			userBytes += rowBytes
		case r < 8:
			j := rng.Intn(len(live))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			(*m)[id] = nil
			op.kind, op.sql = 'D', fmt.Sprintf("DELETE FROM t WHERE id = %d", id)
		default:
			id := live[rng.Intn(len(live))]
			v := freshVec()
			(*m)[id] = v
			op.kind, op.sql = 'U', fmt.Sprintf("UPDATE t SET vec = '%s' WHERE id = %d", vecLiteral(v), id)
			userBytes += rowBytes
		}
		ops = append(ops, op)
	}
	return ops, userBytes
}
