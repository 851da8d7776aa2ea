package maintenance_test

import (
	"fmt"
	"strings"
	"testing"

	"vecstudy/internal/maintenance"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/sql"

	_ "vecstudy/internal/pase/all"
)

func openLoaded(t *testing.T, n int) (*db.DB, *sql.Session) {
	t.Helper()
	d, err := db.Open(db.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s := sql.NewSession(d)
	if _, err := s.Execute("CREATE TABLE t (id int, vec float[])"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, '{%d, %d, 0, 0}')", i, i, i)
	}
	if _, err := s.Execute(b.String()); err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestVacuumTableReport(t *testing.T) {
	d, s := openLoaded(t, 80)
	if _, err := s.Execute("CREATE INDEX idx ON t USING ivfflat (vec) WITH (clusters = 4, sample_ratio = 1, seed = 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("DELETE FROM t WHERE id < 20"); err != nil {
		t.Fatal(err)
	}

	d.StmtGate().Lock()
	rep, err := maintenance.VacuumTable(d, "t")
	d.StmtGate().Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Heap.DeadReclaimed != 20 {
		t.Errorf("heap reclaimed %d, want 20", rep.Heap.DeadReclaimed)
	}
	if rep.IndexDead != 20 {
		t.Errorf("index dead removed = %d, want 20", rep.IndexDead)
	}
	if rep.IndexesRepaired != 1 {
		t.Errorf("indexes repaired = %d, want 1", rep.IndexesRepaired)
	}
	st := d.Mutations()
	if st.VacuumRuns != 1 || st.DeadReclaimed == 0 {
		t.Errorf("mutation stats = %+v", st)
	}

	if _, err := maintenance.VacuumAll(d); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumUnknownTable(t *testing.T) {
	d, _ := openLoaded(t, 4)
	if _, err := maintenance.VacuumTable(d, "missing"); err == nil {
		t.Fatal("vacuum of unknown table succeeded")
	}
}
