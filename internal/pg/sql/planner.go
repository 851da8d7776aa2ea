package sql

import (
	"fmt"
	"strconv"
	"strings"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
)

// planner.go is the filtered-kNN planning seam: it compiles the parsed
// WHERE clause against the table schema, estimates its selectivity from
// the heap's tuple reservoir, and picks one of three execution
// strategies for `WHERE ... ORDER BY vec <-> q LIMIT k`:
//
//   - pre-filter: predicate-pushed sequential scan + exact bounded
//     top-k over the survivors. Exact; cost ~ one heap pass, distance
//     math only on matching rows. Wins when few rows match.
//   - post-filter: index kNN with over-fetch k' = k·α, dropping
//     non-matching hits and refilling (k' doubles) until k survive or
//     the index is exhausted. Wins when most rows match.
//   - in-traversal: the predicate rides into the access method
//     (am.Query.Pred) so non-matching tuples never enter the result
//     heap — HNSW beam search and IVF list scans skip them in place.
//     Wins at middling selectivity, where post-filter over-fetches and
//     pre-filter still pays a full heap pass.

// FilterStrategy is how a filtered vector search executes.
type FilterStrategy int

const (
	// FilterNone means the query has no predicate.
	FilterNone FilterStrategy = iota
	// FilterPre is the predicate-pushed exact scan.
	FilterPre
	// FilterPost is index kNN with over-fetch and refill.
	FilterPost
	// FilterInTraversal threads the predicate into the index traversal.
	FilterInTraversal
)

// A FilterStrategy is spelled two ways: filterStrategyName in plans
// (EXPLAIN, group keys), filterStrategyKnob by SET filter_strategy, where
// FilterNone — no strategy forced — reads auto.
var (
	filterStrategyName = [...]string{FilterNone: "none", FilterPre: "pre-filter", FilterPost: "post-filter", FilterInTraversal: "in-traversal"}
	filterStrategyKnob = [...]string{FilterNone: "auto", FilterPre: "pre", FilterPost: "post", FilterInTraversal: "intraversal"}
)

func (f FilterStrategy) String() string { return filterStrategyName[f] }

// Selectivity thresholds of the auto policy. Below Low a predicate is
// selective enough that scanning only matching rows beats any index
// walk; at and above High the index's top-k is barely thinned, so plain
// over-fetch wins; in between, in-traversal filtering avoids both the
// full heap pass and the over-fetch amplification.
const (
	selLowThreshold  = 0.1
	selHighThreshold = 0.5
)

// compiledCond is one schema-resolved comparison.
type compiledCond struct {
	col int
	op  string
	val Literal
}

// compiledPred is the WHERE clause bound to column ordinals.
type compiledPred struct {
	conds []compiledCond
	src   []Cond // retained for rendering (EXPLAIN)
}

// compilePred resolves every condition's column against the schema,
// returning nil for an empty predicate. Unknown columns fail with the
// same "sql: no column" error on every path — the silent-drop bug let
// the vector path skip this entirely.
func compilePred(conds []Cond, schema heap.Schema) (*compiledPred, error) {
	if len(conds) == 0 {
		return nil, nil
	}
	cp := &compiledPred{src: conds}
	for _, c := range conds {
		i := schema.ColIndex(c.Col)
		if i < 0 {
			return nil, fmt.Errorf("sql: no column %q", c.Col)
		}
		cp.conds = append(cp.conds, compiledCond{col: i, op: c.Op, val: c.Val})
	}
	return cp, nil
}

// eval applies the AND chain to one decoded row.
func (cp *compiledPred) eval(vals []any) bool {
	for _, c := range cp.conds {
		if !litCompare(c.op, c.val, vals[c.col]) {
			return false
		}
	}
	return true
}

// String renders the predicate in the dialect's syntax ("price < 10 AND
// cat = 'x'") for EXPLAIN output.
func (cp *compiledPred) String() string {
	var b strings.Builder
	for i, c := range cp.src {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(c.Col)
		b.WriteByte(' ')
		b.WriteString(c.Op)
		b.WriteByte(' ')
		b.WriteString(renderLiteral(c.Val))
	}
	return b.String()
}

// renderLiteral formats one literal the way the parser would accept it
// back.
func renderLiteral(l Literal) string {
	switch {
	case l.IsNull:
		return "NULL"
	case l.IsStr:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	default:
		return strconv.FormatFloat(l.Num, 'g', -1, 64)
	}
}

// litCompare evaluates `v op lit`. Numeric columns compare as float64
// against numeric literals; text columns compare lexicographically
// against string literals. A type mismatch (or NULL) satisfies nothing,
// mirroring SQL's unknown-comparison semantics.
func litCompare(op string, lit Literal, v any) bool {
	switch val := v.(type) {
	case int32:
		return lit.IsNum && cmpOrd(op, float64(val), lit.Num)
	case int64:
		return lit.IsNum && cmpOrd(op, float64(val), lit.Num)
	case float32:
		return lit.IsNum && cmpOrd(op, float64(val), lit.Num)
	case string:
		return lit.IsStr && cmpOrd(op, strings.Compare(val, lit.Str), 0)
	}
	return false
}

// cmpOrd applies a comparison operator to an ordered pair.
func cmpOrd[T int | float64](op string, a, b T) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// estimateSelectivity returns the fraction of the table's tuple
// reservoir satisfying the predicate. An empty reservoir (empty table)
// reports 1 — with nothing to thin, every strategy degenerates anyway.
func estimateSelectivity(tbl *heap.Table, cp *compiledPred) (float64, error) {
	rows, err := tbl.Sample()
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 1, nil
	}
	match := 0
	for _, vals := range rows {
		if cp.eval(vals) {
			match++
		}
	}
	return float64(match) / float64(len(rows)), nil
}

// filterPlan is the planner's decision for one filtered vector query.
type filterPlan struct {
	strategy    FilterStrategy
	selectivity float64 // estimated; meaningful when strategy != FilterNone
}

// FilterStrategySetting and FilterOverfetchSetting are the session knobs
// steering filtered search: the former forces a strategy (auto | pre |
// post | intraversal), the latter sets the post-filter over-fetch
// multiplier α in k' = k·α.
const (
	FilterStrategySetting  = "filter_strategy"
	FilterOverfetchSetting = "filter_overfetch"
)

// planFilter picks the execution strategy for st's predicate: the one
// SET filter_strategy forces, else by estimated selectivity. idx may be
// nil (no index on the ORDER BY column), which leaves only the exact
// pre-filter path whatever was forced; EXPLAIN reports the strategy
// actually planned.
func (s *Session) planFilter(tbl *heap.Table, idx am.Index, cp *compiledPred) (filterPlan, error) {
	if cp == nil {
		return filterPlan{strategy: FilterNone}, nil
	}
	sel, err := estimateSelectivity(tbl, cp)
	if err != nil {
		return filterPlan{}, err
	}
	plan := filterPlan{strategy: s.set.filterStrategy, selectivity: sel}
	switch {
	case idx == nil:
		plan.strategy = FilterPre
	case plan.strategy != FilterNone: // forced
	case sel < selLowThreshold:
		plan.strategy = FilterPre
	case sel < selHighThreshold:
		plan.strategy = FilterInTraversal
	default:
		plan.strategy = FilterPost
	}
	return plan, nil
}

// predicateFor compiles cp into an am.Predicate resolving TIDs through
// the heap, memoizing per-TID verdicts (graph traversals revisit, and
// the post-filter refill loop re-sees earlier hits). The visibility
// check rides along: a dead tuple satisfies no predicate, so a stale
// index TID is filtered out rather than resolved.
func predicateFor(tbl *heap.Table, cp *compiledPred) am.Predicate {
	schema := tbl.Schema()
	cache := make(map[heap.TID]bool)
	return func(tid heap.TID) (bool, error) {
		if ok, seen := cache[tid]; seen {
			return ok, nil
		}
		var ok bool
		visible, err := tbl.GetVisible(tid, func(tup []byte) error {
			vals, err := schema.Decode(tup)
			if err != nil {
				return err
			}
			ok = cp.eval(vals)
			return nil
		})
		if err != nil {
			return false, err
		}
		ok = ok && visible
		cache[tid] = ok
		return ok, nil
	}
}
