package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"vecstudy/internal/maintenance"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
)

// BufferPartitionsSetting is the session knob that repartitions the
// shared buffer pool at runtime (`SET buffer_partitions = 16`), the
// analogue of PostgreSQL's NUM_BUFFER_PARTITIONS compile-time constant.
// 1 restores the paper's single-lock pool.
const BufferPartitionsSetting = "buffer_partitions"

// VacuumThresholdSetting is the auto-vacuum trigger: after a DELETE or
// UPDATE, a table whose dead-tuple fraction meets or exceeds this value
// is vacuumed in place (heap compaction + index repair + sample
// rebuild). 0 disables auto-vacuum; VACUUM remains available manually.
const VacuumThresholdSetting = "vacuum_threshold"

// DistanceKernelSetting selects the distance kernel search paths score
// candidates with: ref (bit-exact scalar baseline), unrolled
// (cache-blocked generic Go), or avx2 (assembly, amd64 hosts with the
// ISA; silently falls back to the default elsewhere). The default is the
// fastest of them the host registered.
// Build, insert, and delete arithmetic is pinned to ref regardless —
// bucket assignment and graph wiring must not depend on a session knob.
const DistanceKernelSetting = "distance_kernel"

// SQ8RerankSetting is the ivfsq8 re-rank multiplier β: the quantized
// scan collects k·β candidates by asymmetric code distance, then the
// top k are re-ranked against the full-precision heap tuples. 1 skips
// no candidates but re-ranks exactly k.
const SQ8RerankSetting = "sq8_rerank"

// Setting describes one recognized session knob.
type Setting struct {
	Name    string
	Default string // effective value when the session has not SET it
	Desc    string
}

// knownSettings is the closed list of knobs SET and SHOW accept, in
// SHOW ALL order (sorted by name). Defaults are not written here: they
// are rendered from defaultSettings.
var knownSettings = []Setting{
	{Name: BatchMaxSetting, Desc: "batched execution: max queries coalesced into one multi-query probe"},
	{Name: BatchWindowSetting, Desc: "batched execution: coalescing window in microseconds (0 = off)"},
	{Name: BufferPartitionsSetting, Desc: "buffer-mapping partitions of the shared pool (1 = paper's single lock)"},
	{Name: DistanceKernelSetting, Desc: "distance kernel for search-path scoring: ref, unrolled, or avx2"},
	{Name: "efs", Desc: "hnsw: search queue length"},
	{Name: FilterOverfetchSetting, Desc: "filtered kNN: post-filter over-fetch multiplier (k' = k*alpha)"},
	{Name: FilterStrategySetting, Desc: "filtered kNN strategy: auto, pre, post, or intraversal"},
	{Name: "heap", Desc: "ivfflat: top-k heap policy, n (PASE size-n, RC#6) or k (size-k)"},
	{Name: "nprobe", Desc: "ivf: clusters probed per query"},
	{Name: SQ8RerankSetting, Desc: "ivfsq8: re-rank multiplier beta (k*beta quantized candidates re-ranked at full precision)"},
	{Name: "threads", Desc: "intra-query scan parallelism"},
	{Name: VacuumThresholdSetting, Desc: "auto-vacuum when a table's dead-tuple fraction reaches this (0 = off)"},
}

// KnownSettings returns the recognized session knobs with their
// defaults (for SHOW ALL and external tooling). buffer_partitions has
// none: it is the shared pool's live state, not a session's.
func KnownSettings() []Setting {
	def := defaultSettings()
	out := make([]Setting, len(knownSettings))
	for i, st := range knownSettings {
		st.Default = def.show(st.Name)
		out[i] = st
	}
	return out
}

func errUnrecognized(name string) error {
	return fmt.Errorf("sql: unrecognized setting %q (SHOW ALL lists the known settings)", name)
}

// settings is a session's knobs, parsed. SET fills it (set is the only
// writer), and SHOW, EXPLAIN, the coalescer's group key and every scan
// read these typed values — no statement touches a knob string. It is
// comparable: two sessions run a query identically iff their settings
// are equal.
type settings struct {
	scan            am.ScanOpts    // nprobe, efs, threads, sq8_rerank, heap, distance_kernel
	filterStrategy  FilterStrategy // the forced strategy; FilterNone is auto
	filterOverfetch int            // post-filter over-fetch multiplier alpha
	batchWindow     time.Duration
	batchMax        int
	vacuumThreshold float64
}

// defaultSettings is a fresh session's knobs; the scan defaults are
// am.DefaultScanOpts's.
func defaultSettings() settings {
	return settings{
		scan:            *am.DefaultScanOpts(),
		filterStrategy:  FilterNone,
		filterOverfetch: 4,
		batchWindow:     0,
		batchMax:        32,
		vacuumThreshold: 0,
	}
}

// set parses one knob assignment into its typed field; a value the knob
// cannot take is an error and changes nothing. buffer_partitions is only
// checked here — the session applies it to the shared pool.
func (st *settings) set(name, value string) error {
	if known, err := st.scan.Set(name, value); known {
		return err
	}
	n, intErr := strconv.Atoi(value)
	switch name {
	case BufferPartitionsSetting:
		if intErr != nil {
			return fmt.Errorf("sql: SET %s expects an integer: %w", BufferPartitionsSetting, intErr)
		}
	case FilterStrategySetting:
		i := slices.Index(filterStrategyKnob[:], value)
		if i < 0 {
			return fmt.Errorf("sql: SET %s expects auto, pre, post, or intraversal", FilterStrategySetting)
		}
		st.filterStrategy = FilterStrategy(i)
	case FilterOverfetchSetting:
		if intErr != nil || n < 1 {
			return fmt.Errorf("sql: SET %s expects a positive integer", FilterOverfetchSetting)
		}
		st.filterOverfetch = n
	case BatchWindowSetting:
		if intErr != nil || n < 0 || n > BatchWindowMaxMicros {
			return fmt.Errorf("sql: SET %s expects an integer between 0 and %d (microseconds)", BatchWindowSetting, BatchWindowMaxMicros)
		}
		st.batchWindow = time.Duration(n) * time.Microsecond
	case BatchMaxSetting:
		if intErr != nil || n < 1 || n > BatchMaxLimit {
			return fmt.Errorf("sql: SET %s expects an integer between 1 and %d", BatchMaxSetting, BatchMaxLimit)
		}
		st.batchMax = n
	case VacuumThresholdSetting:
		f, err := strconv.ParseFloat(value, 64)
		// !(in range) rather than (out of range): NaN must fail, for
		// settings is a map key and NaN never equals itself.
		if err != nil || !(f >= 0 && f <= 1) {
			return fmt.Errorf("sql: SET %s expects a fraction between 0 and 1", VacuumThresholdSetting)
		}
		st.vacuumThreshold = f
	default:
		return errUnrecognized(name)
	}
	return nil
}

// show renders a knob's typed value the way set would accept it back;
// "" for buffer_partitions and unknown names.
func (st *settings) show(name string) string {
	if v, known := st.scan.Get(name); known {
		return v
	}
	switch name {
	case FilterStrategySetting:
		return filterStrategyKnob[st.filterStrategy]
	case FilterOverfetchSetting:
		return strconv.Itoa(st.filterOverfetch)
	case BatchWindowSetting:
		return strconv.FormatInt(st.batchWindow.Microseconds(), 10)
	case BatchMaxSetting:
		return strconv.Itoa(st.batchMax)
	case VacuumThresholdSetting:
		return strconv.FormatFloat(st.vacuumThreshold, 'g', -1, 64)
	}
	return ""
}

// render lists name=value, in SHOW ALL order, for every session knob
// that is not at its default (EXPLAIN's scan-parameter and group lines).
func (st *settings) render() string {
	def := defaultSettings()
	var parts []string
	for _, k := range knownSettings {
		if v := st.show(k.Name); v != def.show(k.Name) {
			parts = append(parts, k.Name+"="+v)
		}
	}
	return strings.Join(parts, " ")
}

// Session executes statements against a database and carries the
// session's settings (scan parameters like nprobe, efs, threads — PASE
// exposes the same knobs through GUCs).
type Session struct {
	db  *db.DB
	set settings

	lastFilter execTrace // what the last filtered vector search did
}

// NewSession opens a session on d.
func NewSession(d *db.DB) *Session {
	return &Session{db: d, set: defaultSettings()}
}

// Set is the single SET path, the SET statement's and a program's: the
// value is parsed here, once, and an unknown knob or a bad value fails
// the SET — never a later query.
func (s *Session) Set(name, value string) error {
	if err := s.set.set(name, value); err != nil {
		return err
	}
	if name == BufferPartitionsSetting {
		n, _ := strconv.Atoi(value)
		// The pool clamps; SHOW reports its effective count.
		return s.db.SetBufferPartitions(n)
	}
	return nil
}

// ValidateSetting checks one knob assignment without applying it. The
// cluster router validates at record time through this — its SETs are
// replayed onto shard sessions later, where a bad value would otherwise
// surface as a confusing error on an unrelated query.
func ValidateSetting(name, value string) error {
	st := defaultSettings()
	return st.set(name, value)
}

// effective resolves a known setting to its current value (the pool's
// live partition count for buffer_partitions).
func (s *Session) effective(name string) string {
	if name == BufferPartitionsSetting {
		return strconv.Itoa(s.db.Pool().Partitions())
	}
	return s.set.show(name)
}

// Result is the outcome of one statement.
type Result struct {
	Cols []string
	Rows [][]any
	Msg  string // DDL/utility acknowledgment
}

// Execute parses and runs one statement; a vector search is planned and
// Run at once.
func (s *Session) Execute(text string) (*Result, error) {
	res, q, err := s.ExecuteOrPlan(text)
	if err != nil || q == nil {
		return res, err
	}
	return q.Run()
}

// run executes every statement but SELECT, which ExecuteOrPlan routes to
// runSelect.
func (s *Session) run(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateTableStmt:
		if _, err := s.db.CreateTable(st.Name, st.Schema); err != nil {
			return nil, err
		}
		return &Result{Msg: "CREATE TABLE"}, nil
	case *InsertStmt:
		return s.runInsert(st)
	case *DeleteStmt:
		return s.runDelete(st)
	case *UpdateStmt:
		return s.runUpdate(st)
	case *VacuumStmt:
		return s.runVacuum(st)
	case *CreateIndexStmt:
		s.db.StmtGate().RLock()
		_, err := s.db.CreateIndex(st.Name, st.Table, st.Column, st.AM, st.Options)
		s.db.StmtGate().RUnlock()
		if err != nil {
			return nil, err
		}
		return &Result{Msg: "CREATE INDEX"}, nil
	case *SetStmt:
		if err := s.Set(st.Name, st.Value); err != nil {
			return nil, err
		}
		return &Result{Msg: "SET"}, nil
	case *ShowStmt:
		if st.Name == "all" {
			res := &Result{Cols: []string{"name", "setting", "description"}}
			for _, known := range knownSettings {
				res.Rows = append(res.Rows, []any{known.Name, s.effective(known.Name), known.Desc})
			}
			return res, nil
		}
		v := s.effective(st.Name)
		if v == "" {
			return nil, errUnrecognized(st.Name)
		}
		return &Result{Cols: []string{st.Name}, Rows: [][]any{{v}}}, nil
	case *ExplainStmt:
		return s.runExplain(st)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

func (s *Session) runInsert(st *InsertStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	s.db.StmtGate().RLock()
	defer s.db.StmtGate().RUnlock()
	schema := tbl.Schema()
	for _, row := range st.Rows {
		if len(row) != len(schema.Cols) {
			return nil, fmt.Errorf("sql: INSERT has %d values, table %q has %d columns", len(row), st.Table, len(schema.Cols))
		}
		values := make([]any, len(row))
		for i, lit := range row {
			v, err := litToValue(lit, schema.Cols[i])
			if err != nil {
				return nil, err
			}
			values[i] = v
		}
		if _, err := s.db.Insert(st.Table, values); err != nil {
			return nil, err
		}
	}
	return &Result{Msg: fmt.Sprintf("INSERT 0 %d", len(st.Rows))}, nil
}

// matchingTIDs collects the TIDs of live rows satisfying the predicate,
// decoding values only when a predicate needs them. Collect-then-mutate
// keeps DELETE and UPDATE out of their own way: an UPDATE's freshly
// inserted rows can never be re-visited by the same statement (the
// Halloween problem).
func matchingTIDs(tbl *heap.Table, pred *compiledPred) ([]heap.TID, error) {
	schema := tbl.Schema()
	var tids []heap.TID
	err := tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		if pred != nil {
			vals, err := schema.Decode(tup)
			if err != nil {
				return false, err
			}
			if !pred.eval(vals) {
				return true, nil
			}
		}
		tids = append(tids, tid)
		return true, nil
	})
	return tids, err
}

// maybeAutoVacuum vacuums the table if its dead fraction has reached the
// session's vacuum_threshold. Callers hold the statement gate
// exclusively already (DELETE/UPDATE run under it).
func (s *Session) maybeAutoVacuum(tbl *heap.Table, table string) error {
	th := s.set.vacuumThreshold
	if th <= 0 || tbl.DeadFraction() < th {
		return nil
	}
	_, err := maintenance.VacuumTable(s.db, table)
	return err
}

func (s *Session) runDelete(st *DeleteStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	pred, err := compilePred(st.Where, tbl.Schema())
	if err != nil {
		return nil, err
	}
	s.db.StmtGate().Lock()
	defer s.db.StmtGate().Unlock()
	tids, err := matchingTIDs(tbl, pred)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, tid := range tids {
		ok, err := s.db.Delete(st.Table, tid)
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	if err := s.maybeAutoVacuum(tbl, st.Table); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("DELETE %d", n)}, nil
}

func (s *Session) runUpdate(st *UpdateStmt) (*Result, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	pred, err := compilePred(st.Where, schema)
	if err != nil {
		return nil, err
	}
	type assign struct {
		col int
		val any
	}
	assigns := make([]assign, 0, len(st.Set))
	for _, a := range st.Set {
		col := schema.ColIndex(a.Col)
		if col < 0 {
			return nil, fmt.Errorf("sql: no column %q", a.Col)
		}
		v, err := litToValue(a.Val, schema.Cols[col])
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assign{col: col, val: v})
	}
	s.db.StmtGate().Lock()
	defer s.db.StmtGate().Unlock()
	tids, err := matchingTIDs(tbl, pred)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, tid := range tids {
		var values []any
		ok, err := tbl.GetVisible(tid, func(tup []byte) error {
			var err error
			values, err = schema.Decode(tup)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, a := range assigns {
			values[a.col] = a.val
		}
		if _, ok, err := s.db.Update(st.Table, tid, values); err != nil {
			return nil, err
		} else if ok {
			n++
		}
	}
	if err := s.maybeAutoVacuum(tbl, st.Table); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("UPDATE %d", n)}, nil
}

func (s *Session) runVacuum(st *VacuumStmt) (*Result, error) {
	s.db.StmtGate().Lock()
	defer s.db.StmtGate().Unlock()
	if st.Table != "" {
		if _, err := maintenance.VacuumTable(s.db, st.Table); err != nil {
			return nil, err
		}
		return &Result{Msg: "VACUUM"}, nil
	}
	if _, err := maintenance.VacuumAll(s.db); err != nil {
		return nil, err
	}
	return &Result{Msg: "VACUUM"}, nil
}

// litToValue coerces a parsed literal to the column's Go type.
func litToValue(lit Literal, col heap.Column) (any, error) {
	switch col.Type {
	case heap.Int4:
		if !lit.IsNum {
			return nil, fmt.Errorf("sql: column %q expects an integer", col.Name)
		}
		return int32(lit.Num), nil
	case heap.Int8:
		if !lit.IsNum {
			return nil, fmt.Errorf("sql: column %q expects a bigint", col.Name)
		}
		return int64(lit.Num), nil
	case heap.Float4:
		if !lit.IsNum {
			return nil, fmt.Errorf("sql: column %q expects a real", col.Name)
		}
		return float32(lit.Num), nil
	case heap.Text:
		if !lit.IsStr {
			return nil, fmt.Errorf("sql: column %q expects a string", col.Name)
		}
		return lit.Str, nil
	case heap.Float4Array:
		if !lit.IsVec {
			return nil, fmt.Errorf("sql: column %q expects a vector literal like '{0.1,0.2}'", col.Name)
		}
		return lit.Vec, nil
	}
	return nil, fmt.Errorf("sql: unsupported column type %v", col.Type)
}

// DistanceColumn is the pseudo-column that exposes the ORDER BY distance
// in the target list of a vector search.
const DistanceColumn = "distance"

// runSelect executes a plain SELECT to completion; [WHERE ...] ORDER BY
// vec <-> '...' [LIMIT k] is only planned (planVector) and returned
// unexecuted, so the query coalescer can hold it for a batch window (see
// batch.go). Unfiltered vector searches prefer an index scan and fall
// back to an exact scan-and-sort; filtered ones go through the planner
// seam, which picks pre-filter, post-filter, or in-traversal by estimated
// selectivity (see planner.go).
func (s *Session) runSelect(st *SelectStmt) (*Result, *VectorQuery, error) {
	tbl, err := s.db.Table(st.Table)
	if err != nil {
		return nil, nil, err
	}
	schema := tbl.Schema()
	outCols, err := resolveColumns(st, schema)
	if err != nil {
		return nil, nil, err
	}
	// The predicate is validated against the schema before dispatch, so
	// an unknown WHERE column errors identically on the scan and vector
	// paths (the silent-drop bug ignored it entirely on the latter).
	pred, err := compilePred(st.Where, schema)
	if err != nil {
		return nil, nil, err
	}

	if st.OrderCol != "" {
		q, err := s.planVector(st, tbl, outCols, pred)
		return nil, q, err
	}

	// Plain (optionally filtered) sequential scan.
	s.db.StmtGate().RLock()
	defer s.db.StmtGate().RUnlock()
	res := &Result{Cols: colNames(outCols, schema, st)}
	count := 0
	err = tbl.Scan(func(tid heap.TID, tup []byte) (bool, error) {
		vals, err := schema.Decode(tup)
		if err != nil {
			return false, err
		}
		if pred != nil && !pred.eval(vals) {
			return true, nil
		}
		count++
		if !st.CountStar {
			res.Rows = append(res.Rows, project(vals, outCols, 0))
		}
		if st.HasLimit && !st.CountStar && len(res.Rows) >= st.Limit {
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if st.CountStar {
		res.Rows = [][]any{{int64(count)}}
	}
	return res, nil, nil
}

// execTrace records what the last filtered search actually did, for
// in-package tests and debugging (the planner's choice is visible to
// clients through EXPLAIN).
type execTrace struct {
	fetched  int // index hits pulled across every post-filter refill round
	refills  int // extra search rounds beyond the first
	strategy FilterStrategy
}

// postFilterSearch over-fetches k' = k·α from the index, keeps the hits
// satisfying pred, and doubles k' until k survive or k' has reached the
// table size (the index is exhausted). Termination is unconditional:
// k' grows geometrically to the n cap, so a predicate matching zero
// rows performs O(log n) rounds and returns empty, with total fetched
// hits bounded by the k'-series sum (< 4n).
func (q *VectorQuery) postFilterSearch() ([]am.Result, error) {
	s, k := q.s, q.k
	n := int(q.tbl.NTuples())
	pred := predicateFor(q.tbl, q.pred)
	kPrime := k * s.set.filterOverfetch
	if kPrime > n || kPrime < k { // cap at table size; guard overflow
		kPrime = n
	}
	for {
		scanned, err := q.idx.Scan([]am.Query{{Vec: q.st.QueryVec, K: kPrime}}, &s.set.scan)
		if err != nil {
			return nil, err
		}
		hits := scanned[0]
		s.lastFilter.fetched += len(hits)
		survivors := make([]am.Result, 0, k)
		for _, h := range hits {
			ok, err := pred(h.TID)
			if err != nil {
				return nil, err
			}
			if ok {
				survivors = append(survivors, h)
				if len(survivors) == k {
					break
				}
			}
		}
		if len(survivors) >= k || kPrime >= n || len(hits) < kPrime {
			return survivors, nil
		}
		s.lastFilter.refills++
		kPrime *= 2
		if kPrime > n || kPrime < 0 {
			kPrime = n
		}
	}
}

// resolveColumns maps the target list to column ordinals; -1 encodes the
// distance pseudo-column.
func resolveColumns(st *SelectStmt, schema heap.Schema) ([]int, error) {
	if st.CountStar {
		return nil, nil
	}
	var out []int
	for _, name := range st.Columns {
		if name == "*" {
			for i := range schema.Cols {
				out = append(out, i)
			}
			continue
		}
		if name == DistanceColumn && st.OrderCol != "" {
			out = append(out, -1)
			continue
		}
		i := schema.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("sql: no column %q", name)
		}
		out = append(out, i)
	}
	return out, nil
}

func colNames(outCols []int, schema heap.Schema, st *SelectStmt) []string {
	if st.CountStar {
		return []string{"count"}
	}
	names := make([]string, len(outCols))
	for i, c := range outCols {
		if c == -1 {
			names[i] = DistanceColumn
		} else {
			names[i] = schema.Cols[c].Name
		}
	}
	return names
}

func project(vals []any, outCols []int, dist float32) []any {
	row := make([]any, len(outCols))
	for i, c := range outCols {
		if c == -1 {
			row[i] = dist
		} else {
			row[i] = vals[c]
		}
	}
	return row
}

// runExplain renders the plan the inner statement would use, including
// the predicate and the filter strategy the planner picks for filtered
// vector searches.
func (s *Session) runExplain(st *ExplainStmt) (*Result, error) {
	sel, ok := st.Inner.(*SelectStmt)
	if !ok {
		return &Result{Cols: []string{"QUERY PLAN"}, Rows: [][]any{{"Utility Statement"}}}, nil
	}

	// Plan the predicate when the table exists; EXPLAIN of a missing
	// table still renders a shape-only plan (the statement would fail at
	// execution, but EXPLAIN has no DDL side effects to protect).
	var pred *compiledPred
	var vq *VectorQuery
	plan := filterPlan{strategy: FilterNone}
	if tbl, err := s.db.Table(sel.Table); err == nil {
		pred, err = compilePred(sel.Where, tbl.Schema())
		if err != nil {
			return nil, err
		}
		if sel.OrderCol != "" {
			// Prefer the full plan (it also answers batchability); a
			// non-vector ORDER BY column keeps the shape-only rendering.
			if q, vErr := s.planVector(sel, tbl, nil, pred); vErr == nil {
				vq, plan = q, q.plan
			} else if plan, err = s.planFilter(tbl, s.db.IndexOn(sel.Table, sel.OrderCol), pred); err != nil {
				return nil, err
			}
		}
	}

	var lines []string
	if sel.OrderCol != "" {
		lines = append(lines, fmt.Sprintf("Limit (k=%d)", sel.Limit))
		if idx := s.db.IndexOn(sel.Table, sel.OrderCol); idx != nil && plan.strategy != FilterPre {
			lines = append(lines, fmt.Sprintf("  -> Index Scan using %s on %s (%s)", idx.AM(), sel.Table, s.set.render()))
		} else {
			lines = append(lines, "  -> Sort by vector distance", fmt.Sprintf("    -> Seq Scan on %s", sel.Table))
		}
		if pred != nil {
			lines = append(lines, fmt.Sprintf("       Filter: %s (%s, est sel=%.2f)", pred, plan.strategy, plan.selectivity))
		}
		// The kernel that will actually score distances: SET resolved a
		// known but unregistered name (avx2 without AVX2) to the default.
		lines = append(lines, fmt.Sprintf("Kernel: %s", s.set.scan.Kernel.Name()))
		if vq != nil {
			if ok, reason := vq.Batchable(); ok {
				lines = append(lines, fmt.Sprintf("Batchable: yes (group %s)", vq.GroupKey()))
			} else {
				lines = append(lines, fmt.Sprintf("Batchable: no (%s)", reason))
			}
		}
	} else {
		lines = append(lines, fmt.Sprintf("Seq Scan on %s", sel.Table))
		if len(sel.Where) > 0 {
			if pred == nil {
				// Missing table: render from the AST instead.
				pred = &compiledPred{src: sel.Where}
			}
			lines = append(lines, fmt.Sprintf("  Filter: %s", pred))
		}
	}
	res := &Result{Cols: []string{"QUERY PLAN"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []any{l})
	}
	return res, nil
}
