package sql

import (
	"fmt"
	"strings"
	"testing"

	_ "vecstudy/internal/pase/all"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return NewSession(d)
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// loadVectors creates the paper's schema and inserts n 4-dim rows laid
// out on a line so nearest neighbors are unambiguous.
func loadVectors(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE t (id int, vec float[])")
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '{%d, %d, 0, 0}')", i, i, i)
	}
	mustExec(t, s, b.String())
}

func TestCreateTableAndCount(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 25)
	res := mustExec(t, s, "SELECT count(*) FROM t")
	if res.Rows[0][0].(int64) != 25 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestSelectWhere(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 10)
	res := mustExec(t, s, "SELECT id, vec FROM t WHERE id = 7")
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].(int32) != 7 {
		t.Errorf("id = %v", res.Rows[0][0])
	}
	v := res.Rows[0][1].([]float32)
	if v[0] != 7 || v[1] != 7 {
		t.Errorf("vec = %v", v)
	}
}

func TestVectorSearchSeqFallback(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 50)
	res := mustExec(t, s, "SELECT id FROM t ORDER BY vec <-> '{10.2, 10.2, 0, 0}' LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].(int32) != 10 {
		t.Errorf("nearest id = %v, want 10", res.Rows[0][0])
	}
}

func TestVectorSearchWithIndexMatchesPaperSyntax(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 300)
	// The paper's Sec II-E workflow: create index with WITH options, set
	// scan parameters, search with ORDER BY ... LIMIT.
	mustExec(t, s, "CREATE INDEX ivf_idx ON t USING ivfflat (vec) WITH (clusters = 16, sample_ratio = 1, seed = 1)")
	mustExec(t, s, "SET nprobe = 16")
	res := mustExec(t, s, "SELECT id, distance FROM t ORDER BY vec <-> '{42.1, 42.1, 0, 0}'::pase ASC LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].(int32) != 42 {
		t.Errorf("nearest id = %v, want 42", res.Rows[0][0])
	}
	d0 := res.Rows[0][1].(float32)
	d1 := res.Rows[1][1].(float32)
	if d0 > d1 {
		t.Errorf("distances not ascending: %v then %v", d0, d1)
	}
}

func TestHNSWViaSQL(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 300)
	mustExec(t, s, "CREATE INDEX h_idx ON t USING hnsw (vec) WITH (bnn = 8, efb = 40, seed = 2)")
	mustExec(t, s, "SET efs = 100")
	res := mustExec(t, s, "SELECT id FROM t ORDER BY vec <-> '{100, 100, 0, 0}' LIMIT 1")
	if res.Rows[0][0].(int32) != 100 {
		t.Errorf("nearest id = %v, want 100", res.Rows[0][0])
	}
}

func TestExplainShowsIndexScan(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 300)
	planText := func(res *Result) string {
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(row[0].(string))
			b.WriteByte('\n')
		}
		return b.String()
	}
	res := mustExec(t, s, "EXPLAIN SELECT id FROM t ORDER BY vec <-> '{1,1,0,0}' LIMIT 5")
	if !strings.Contains(planText(res), "Seq Scan") {
		t.Errorf("expected seq-scan plan before index exists: %v", res.Rows)
	}
	mustExec(t, s, "CREATE INDEX ivf_idx ON t USING ivfflat (vec) WITH (clusters = 8, sample_ratio = 1)")
	res = mustExec(t, s, "EXPLAIN SELECT id FROM t ORDER BY vec <-> '{1,1,0,0}' LIMIT 5")
	if !strings.Contains(planText(res), "Index Scan") {
		t.Errorf("expected index-scan plan: %v", res.Rows)
	}
}

func TestSetAndShow(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "SET nprobe = 33")
	res := mustExec(t, s, "SHOW nprobe")
	if res.Rows[0][0].(string) != "33" {
		t.Errorf("SHOW nprobe = %v", res.Rows[0][0])
	}
}

func TestSetRejectsUnknownKnob(t *testing.T) {
	s := newSession(t)
	if _, err := s.Execute("SET nprobes = 10"); err == nil {
		t.Error("SET of a misspelled knob accepted")
	}
	if err := s.Set("wibble", "1"); err == nil {
		t.Error("Session.Set of an unknown knob accepted")
	}
	if err := s.Set("nprobe", "10"); err != nil {
		t.Errorf("Session.Set(nprobe) rejected: %v", err)
	}
	res := mustExec(t, s, "SHOW nprobe")
	if res.Rows[0][0].(string) != "10" {
		t.Errorf("SHOW nprobe after Set = %v", res.Rows[0][0])
	}
}

func TestShowRejectsUnknownSetting(t *testing.T) {
	s := newSession(t)
	if _, err := s.Execute("SHOW wibble"); err == nil {
		t.Error("SHOW of an unknown setting accepted")
	}
}

func TestShowAll(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "SET efs = 321")
	res := mustExec(t, s, "SHOW ALL")
	if len(res.Cols) != 3 || res.Cols[0] != "name" {
		t.Fatalf("SHOW ALL cols = %v", res.Cols)
	}
	if len(res.Rows) != len(KnownSettings()) {
		t.Fatalf("SHOW ALL lists %d settings, want %d", len(res.Rows), len(KnownSettings()))
	}
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row[0].(string)] = row[1].(string)
	}
	if got["efs"] != "321" {
		t.Errorf("SHOW ALL efs = %q after SET, want 321", got["efs"])
	}
	if got["nprobe"] != "20" {
		t.Errorf("SHOW ALL nprobe default = %q, want 20", got["nprobe"])
	}
	if got[BufferPartitionsSetting] == "" {
		t.Errorf("SHOW ALL %s empty, want live pool partition count", BufferPartitionsSetting)
	}
}

func TestSelectUnknownColumn(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 5)
	for _, q := range []string{
		"SELECT nope FROM t",
		"SELECT id FROM t WHERE nope = 1",
		"SELECT id FROM t ORDER BY nope <-> '{1,2,3,4}' LIMIT 1",
		"SELECT id FROM t ORDER BY id <-> '{1,2,3,4}' LIMIT 1", // not a vector column
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("no error for: %s", q)
		}
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE m (a int, b bigint, c real, d text, e float[])")
	for _, q := range []string{
		"INSERT INTO m VALUES ('x', 2, 3.5, 'ok', '{1,2}')",   // string into int
		"INSERT INTO m VALUES (1, 'x', 3.5, 'ok', '{1,2}')",   // string into bigint
		"INSERT INTO m VALUES (1, 2, 'x', 'ok', '{1,2}')",     // string into real
		"INSERT INTO m VALUES (1, 2, 3.5, 4, '{1,2}')",        // number into text
		"INSERT INTO m VALUES (1, 2, 3.5, 'ok', 9)",           // number into vector
		"INSERT INTO m VALUES (1, 2, 3.5, 'ok', 'not a vec')", // non-vector string
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("no error for: %s", q)
		}
	}
	if res := mustExec(t, s, "SELECT count(*) FROM m"); res.Rows[0][0].(int64) != 0 {
		t.Errorf("failed INSERTs left %v rows", res.Rows[0][0])
	}
}

func TestSetBufferPartitions(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 50)
	mustExec(t, s, "SET buffer_partitions = 8")
	if got := s.db.Pool().Partitions(); got != 8 {
		t.Fatalf("pool partitions = %d after SET, want 8", got)
	}
	res := mustExec(t, s, "SHOW buffer_partitions")
	if res.Rows[0][0].(string) != "8" {
		t.Errorf("SHOW buffer_partitions = %v", res.Rows[0][0])
	}
	// Data must survive the repartition (flush + cold restart of the cache).
	res = mustExec(t, s, "SELECT count(*) FROM t")
	if res.Rows[0][0].(int64) != 50 {
		t.Errorf("count after repartition = %v, want 50", res.Rows[0][0])
	}
	// Back to the paper's single-lock configuration.
	mustExec(t, s, "SET buffer_partitions = 1")
	if got := s.db.Pool().Partitions(); got != 1 {
		t.Errorf("pool partitions = %d, want 1", got)
	}
	if _, err := s.Execute("SET buffer_partitions = zero"); err == nil {
		t.Error("non-integer buffer_partitions accepted")
	}
}

func TestInsertAfterIndexIsSearchable(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 200)
	mustExec(t, s, "CREATE INDEX ivf_idx ON t USING ivfflat (vec) WITH (clusters = 8, sample_ratio = 1)")
	mustExec(t, s, "SET nprobe = 8")
	mustExec(t, s, "INSERT INTO t VALUES (777, '{-50, -50, 0, 0}')")
	res := mustExec(t, s, "SELECT id FROM t ORDER BY vec <-> '{-50,-50,0,0}' LIMIT 1")
	if res.Rows[0][0].(int32) != 777 {
		t.Errorf("nearest = %v, want 777", res.Rows[0][0])
	}
}

func TestParseErrors(t *testing.T) {
	s := newSession(t)
	bad := []string{
		"CREATE TABLE",
		"CREATE TABLE t (id wibble)",
		"SELECT FROM t",
		"SELECT id FROM t ORDER BY vec <-> 'not a vector' LIMIT 3",
		"INSERT INTO t (1)",
		"SELECT id FROM t LIMIT -3",
		"FROBNICATE",
		"SELECT id FROM t; garbage",
	}
	for _, q := range bad {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("accepted invalid SQL: %s", q)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 10)
	for _, q := range []string{
		"SELECT id FROM missing",
		"SELECT nope FROM t",
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t VALUES ('x', '{1,2,3,4}')",
		"CREATE TABLE t (id int)", // duplicate
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("no error for: %s", q)
		}
	}
}

func TestSchemaTypesRoundTripThroughSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE k (a int, b bigint, c real, d text, e float[])")
	mustExec(t, s, "INSERT INTO k VALUES (1, 2, 3.5, 'hello ''world''', '{1.5, -2.5}')")
	res := mustExec(t, s, "SELECT * FROM k")
	row := res.Rows[0]
	if row[0].(int32) != 1 || row[1].(int64) != 2 || row[2].(float32) != 3.5 {
		t.Errorf("numeric round trip: %v", row)
	}
	if row[3].(string) != "hello 'world'" {
		t.Errorf("text round trip: %q", row[3])
	}
	v := row[4].([]float32)
	if v[0] != 1.5 || v[1] != -2.5 {
		t.Errorf("vector round trip: %v", v)
	}
}

func TestHeapSchemaUsedBySQL(t *testing.T) {
	// Guard: the float[] syntax must map to Float4Array.
	stmt, err := Parse("CREATE TABLE x (v float[])")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Schema.Cols[0].Type != heap.Float4Array {
		t.Errorf("float[] parsed as %v", ct.Schema.Cols[0].Type)
	}
}

// TestScanKnobsValidatedAtSet: a scan knob's value is parsed by the SET
// statement, so a bad one is that statement's error — not an error on
// every later kNN of the session (nprobe, efs), a silent "n" (heap) or a
// serial scan EXPLAIN calls parallel (threads). The session keeps the
// value it had and keeps answering.
func TestScanKnobsValidatedAtSet(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 300)
	mustExec(t, s, "CREATE INDEX v_idx ON t USING ivfflat (vec) WITH (clusters = 16, sample_ratio = 1, seed = 1)")
	const knn = "SELECT id FROM t ORDER BY vec <-> '{42.2, 42.2, 0, 0}' LIMIT 3"
	for _, prev := range []string{"SET nprobe = 16", "SET efs = 100", "SET threads = 2", "SET heap = k"} {
		mustExec(t, s, prev)
	}
	want := resultIDs(mustExec(t, s, knn))
	for _, tc := range []struct{ knob, bad, prev string }{
		{"nprobe", "abc", "16"},
		{"nprobe", "0", "16"},
		{"efs", "x", "100"},
		{"threads", "-3", "2"},
		{"heap", "foo", "k"},
	} {
		if _, err := s.Execute("SET " + tc.knob + " = " + tc.bad); err == nil {
			t.Errorf("SET %s = %s accepted", tc.knob, tc.bad)
		}
		if err := ValidateSetting(tc.knob, tc.bad); err == nil {
			t.Errorf("ValidateSetting(%s, %s) accepted", tc.knob, tc.bad)
		}
		if got := mustExec(t, s, "SHOW "+tc.knob).Rows[0][0].(string); got != tc.prev {
			t.Errorf("SHOW %s after rejected SET = %q, want %q", tc.knob, got, tc.prev)
		}
		if got := resultIDs(mustExec(t, s, knn)); !idsEqual(got, want) {
			t.Errorf("kNN after rejected SET %s = %s: ids %v, want %v", tc.knob, tc.bad, got, want)
		}
	}
}
