package sql

import (
	"fmt"
	"strings"
	"testing"

	"vecstudy/internal/vec"
)

// TestDistanceKernelSettingValidation: every KNOWN kernel name is
// accepted by SET (including ones not registered on this host — a
// cluster router must be able to replay avx2 to an AVX2-capable shard
// from a non-AVX2 coordinator); unknown names are rejected with the
// roster in the message.
func TestDistanceKernelSettingValidation(t *testing.T) {
	s := newSession(t)
	for _, name := range vec.KnownKernelNames() {
		mustExec(t, s, "SET distance_kernel = "+name)
	}
	_, err := s.Execute("SET distance_kernel = simd512")
	if err == nil {
		t.Fatal("unknown kernel accepted")
	}
	for _, name := range vec.KnownKernelNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list kernel %q", err, name)
		}
	}
}

// TestSQ8RerankSettingValidation: beta must be an integer in [1, 64].
func TestSQ8RerankSettingValidation(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "SET sq8_rerank = 8")
	for _, bad := range []string{"0", "65", "-1", "2.5", "lots"} {
		if _, err := s.Execute("SET sq8_rerank = " + bad); err == nil {
			t.Errorf("SET sq8_rerank = %s accepted", bad)
		}
	}
}

// TestKernelsAgreeOnExactPath: the sequential-scan kNN path must return
// the same rows under every registered kernel — the kernels differ only
// in summation order, and the line-layout data is exactly representable,
// so even the distances agree here.
func TestKernelsAgreeOnExactPath(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 120)
	const q = "SELECT id FROM t ORDER BY vec <-> '{31.4, 31.4, 0, 0}' LIMIT 5"
	want := resultIDs(mustExec(t, s, q))
	for _, name := range vec.RegisteredKernelNames() {
		mustExec(t, s, "SET distance_kernel = "+name)
		if got := resultIDs(mustExec(t, s, q)); !idsEqual(got, want) {
			t.Errorf("kernel %s: ids = %v, want %v", name, got, want)
		}
	}
}

// TestKernelsAgreeOnIndexPath: same invariance on the ivfflat scan path
// (probe selection and bucket scoring both go through the session
// kernel).
func TestKernelsAgreeOnIndexPath(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 200)
	mustExec(t, s, "CREATE INDEX k_idx ON t USING ivfflat (vec) WITH (clusters = 8, sample_ratio = 1, seed = 1)")
	mustExec(t, s, "SET nprobe = 8")
	const q = "SELECT id FROM t ORDER BY vec <-> '{77.3, 77.3, 0, 0}' LIMIT 5"
	want := resultIDs(mustExec(t, s, q))
	for _, name := range vec.RegisteredKernelNames() {
		mustExec(t, s, "SET distance_kernel = "+name)
		if got := resultIDs(mustExec(t, s, q)); !idsEqual(got, want) {
			t.Errorf("kernel %s: ids = %v, want %v", name, got, want)
		}
	}
}

// TestIvfsq8MatchesIvfflatViaSQL: at exhaustive probes the re-ranked
// SQ8 answer equals the full-precision ivfflat answer row for row —
// the quantized phase only pre-selects candidates, never ranks output.
func TestIvfsq8MatchesIvfflatViaSQL(t *testing.T) {
	const n, k = 300, 10
	// Queries are chosen tie-free: an exact distance tie (e.g. a point
	// equidistant from two rows) is ordered by push order in ivfflat's
	// collector but by TID in ivfsq8's TopK, and both are valid answers.
	queries := []string{"'{42.7, 42.7, 0, 0}'", "'{0.1, -0.3, 0, 0}'", "'{255.6, 254.5, 0, 0}'"}

	run := func(am string) [][]int32 {
		s := newSession(t)
		loadVectors(t, s, n)
		mustExec(t, s, fmt.Sprintf(
			"CREATE INDEX m_idx ON t USING %s (vec) WITH (clusters = 8, sample_ratio = 1, seed = 1)", am))
		mustExec(t, s, "SET nprobe = 8")
		var out [][]int32
		for _, q := range queries {
			res := mustExec(t, s, fmt.Sprintf("SELECT id FROM t ORDER BY vec <-> %s LIMIT %d", q, k))
			out = append(out, resultIDs(res))
		}
		return out
	}

	flat := run("ivfflat")
	sq8 := run("ivfsq8")
	for i := range queries {
		if !idsEqual(sq8[i], flat[i]) {
			t.Errorf("query %s: ivfsq8 ids = %v, ivfflat ids = %v", queries[i], sq8[i], flat[i])
		}
	}
}

// TestExplainShowsKernel: EXPLAIN must name the kernel that will
// actually run — the resolved one, so a known-but-unregistered request
// (avx2 on a plain host) renders the fallback, not the wish.
func TestExplainShowsKernel(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 120)
	mustExec(t, s, "CREATE INDEX e_idx ON t USING ivfsq8 (vec) WITH (clusters = 8, sample_ratio = 1, seed = 1)")
	planText := func() string {
		res := mustExec(t, s, "EXPLAIN SELECT id FROM t ORDER BY vec <-> '{5, 5, 0, 0}' LIMIT 3")
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(row[0].(string))
			b.WriteByte('\n')
		}
		return b.String()
	}
	if p := planText(); !strings.Contains(p, "Kernel: "+vec.Default().Name()) {
		t.Errorf("default plan missing kernel line:\n%s", p)
	}
	mustExec(t, s, "SET distance_kernel = ref")
	if p := planText(); !strings.Contains(p, "Kernel: ref") {
		t.Errorf("plan does not reflect SET distance_kernel = ref:\n%s", p)
	}
	// A known but unregistered kernel falls back to the default in the
	// plan; a registered non-default one renders itself.
	for _, name := range vec.KnownKernelNames() {
		mustExec(t, s, "SET distance_kernel = "+name)
		eff, err := vec.ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p := planText(); !strings.Contains(p, "Kernel: "+eff.Name()) {
			t.Errorf("SET %s: plan missing %q:\n%s", name, eff.Name(), p)
		}
	}
}

// TestSQ8RerankKnobReachesScan: a pathological beta must not break the
// row count, and SHOW must reflect the session value.
func TestSQ8RerankKnobReachesScan(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 150)
	mustExec(t, s, "CREATE INDEX r_idx ON t USING ivfsq8 (vec) WITH (clusters = 8, sample_ratio = 1, seed = 1)")
	mustExec(t, s, "SET nprobe = 8")
	for _, beta := range []string{"1", "64"} {
		mustExec(t, s, "SET sq8_rerank = "+beta)
		res := mustExec(t, s, "SELECT id FROM t ORDER BY vec <-> '{60, 60, 0, 0}' LIMIT 7")
		if len(res.Rows) != 7 {
			t.Errorf("beta %s: got %d rows, want 7", beta, len(res.Rows))
		}
	}
	res := mustExec(t, s, "SHOW sq8_rerank")
	if got := res.Rows[0][0].(string); got != "64" {
		t.Errorf("SHOW sq8_rerank = %q, want 64", got)
	}
}
