package sql

import (
	"strings"
	"testing"
	"time"

	"vecstudy/internal/pg/am"
)

func TestBatchSettingsValidation(t *testing.T) {
	s := newSession(t)
	for _, q := range []string{
		"SET batch_window = -1",
		"SET batch_window = 1000001",
		"SET batch_window = soon",
		"SET batch_max = 0",
		"SET batch_max = -4",
		"SET batch_max = 1025",
		"SET batch_max = many",
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("accepted invalid setting: %s", q)
		}
	}
	mustExec(t, s, "SET batch_window = 250")
	if res := mustExec(t, s, "SHOW batch_window"); res.Rows[0][0].(string) != "250" {
		t.Errorf("SHOW batch_window = %v", res.Rows[0][0])
	}
	mustExec(t, s, "SET batch_max = 64")
	if res := mustExec(t, s, "SHOW batch_max"); res.Rows[0][0].(string) != "64" {
		t.Errorf("SHOW batch_max = %v", res.Rows[0][0])
	}
}

func TestBatchSettingsInShowAll(t *testing.T) {
	s := newSession(t)
	res := mustExec(t, s, "SHOW ALL")
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row[0].(string)] = row[1].(string)
	}
	if got[BatchWindowSetting] != "0" {
		t.Errorf("default %s = %q, want 0 (off)", BatchWindowSetting, got[BatchWindowSetting])
	}
	if got[BatchMaxSetting] != "32" {
		t.Errorf("default %s = %q, want 32", BatchMaxSetting, got[BatchMaxSetting])
	}
}

func TestBatchKnobs(t *testing.T) {
	s := newSession(t)
	if w, max := s.BatchKnobs(); w != 0 || max != 32 {
		t.Errorf("default batch knobs = (%v, %d), want (0, 32)", w, max)
	}
	mustExec(t, s, "SET batch_window = 400")
	if w, _ := s.BatchKnobs(); w != 400*time.Microsecond {
		t.Errorf("batch window after SET = %v", w)
	}
}

// TestExplainBatchable checks EXPLAIN surfaces the coalescing verdict:
// batchable index scans report their group key; unbatchable shapes
// report the reason.
func TestExplainBatchable(t *testing.T) {
	s := newSession(t)
	loadVectors(t, s, 300)
	mustExec(t, s, "CREATE INDEX b_idx ON t USING ivfflat (vec) WITH (clusters = 16, sample_ratio = 1, seed = 1)")
	planText := func(q string) string {
		res := mustExec(t, s, q)
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(row[0].(string))
			b.WriteByte('\n')
		}
		return b.String()
	}

	plan := planText("EXPLAIN SELECT id FROM t ORDER BY vec <-> '{5, 5, 0, 0}' LIMIT 3")
	if !strings.Contains(plan, "Batchable: yes (group t|vec|ivfflat|none|d=4|") {
		t.Errorf("index scan not reported batchable with its group key:\n%s", plan)
	}

	plan = planText("EXPLAIN SELECT id FROM t ORDER BY vec <-> '{5, 5, 0, 0}'")
	if !strings.Contains(plan, "Batchable: no (no LIMIT)") {
		t.Errorf("missing LIMIT not reported:\n%s", plan)
	}

	mustExec(t, s, "SET threads = 4")
	plan = planText("EXPLAIN SELECT id FROM t ORDER BY vec <-> '{5, 5, 0, 0}' LIMIT 3")
	if !strings.Contains(plan, "Batchable: no (threads > 1)") {
		t.Errorf("threads > 1 not reported:\n%s", plan)
	}
	mustExec(t, s, "SET threads = 1")

	mustExec(t, s, "SET filter_strategy = post")
	plan = planText("EXPLAIN SELECT id FROM t WHERE id < 200 ORDER BY vec <-> '{5, 5, 0, 0}' LIMIT 3")
	if !strings.Contains(plan, "Batchable: no (post-filter strategy)") {
		t.Errorf("post-filter not reported:\n%s", plan)
	}
	mustExec(t, s, "SET filter_strategy = pre")
	plan = planText("EXPLAIN SELECT id FROM t WHERE id < 200 ORDER BY vec <-> '{5, 5, 0, 0}' LIMIT 3")
	if !strings.Contains(plan, "Batchable: yes (group t|vec|exact|pre-filter|d=4|") {
		t.Errorf("pre-filter exact group not reported batchable:\n%s", plan)
	}
}

// TestGroupKeyReflectsEffectiveSettings checks the key compares parsed
// values: sessions whose SETs differ only cosmetically (explicit default
// vs unset) share a group, while a difference in any scan option, the
// kernel or the filter strategy separates them.
func TestGroupKeyReflectsEffectiveSettings(t *testing.T) {
	d := newSession(t) // session A on its own db
	loadVectors(t, d, 100)
	key := func(s *Session) GroupKey {
		_, q, err := s.ExecuteOrPlan("SELECT id FROM t ORDER BY vec <-> '{1, 1, 0, 0}' LIMIT 3")
		if err != nil {
			t.Fatal(err)
		}
		return q.GroupKey()
	}
	base := key(d)
	// The defaults come from am.DefaultScanOpts(), the one place they are
	// written; other is whichever candidate is not the default.
	defaults := am.DefaultScanOpts()
	for _, knob := range []struct{ name, a, b string }{
		{"nprobe", "7", "20"},
		{"efs", "64", "200"},
		{"threads", "2", "1"},
		{"sq8_rerank", "2", "4"},
		{"heap", "n", "k"},
		{DistanceKernelSetting, "ref", "unrolled"},
		{FilterStrategySetting, "post", "auto"},
	} {
		def, isScanKnob := defaults.Get(knob.name)
		if !isScanKnob {
			def = "auto" // filter_strategy, the one session-level knob in the key
		}
		other := knob.a
		if other == def {
			other = knob.b
		}
		mustExec(t, d, "SET "+knob.name+" = "+def) // explicit default
		if k := key(d); k != base {
			t.Errorf("explicit default %s changed the group key:\n%s\nvs\n%s", knob.name, base, k)
		}
		mustExec(t, d, "SET "+knob.name+" = "+other)
		if k := key(d); k == base {
			t.Errorf("%s = %s kept the default group key", knob.name, other)
		}
		mustExec(t, d, "SET "+knob.name+" = "+def)
	}
}
