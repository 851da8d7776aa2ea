// Package maintenance is the VACUUM-style worker for the dynamic-data
// subsystem: it reclaims dead heap space (page compaction), runs every
// index's Maintain pass (HNSW graph repair, IVF list
// compaction), and rebuilds the planner's reservoir sample. It runs in
// two modes: on demand (the SQL VACUUM statement, or the executor's
// auto-vacuum trigger when a table's dead fraction crosses SET
// vacuum_threshold). There is no periodic launcher: vacuuming happens at
// statement time.
package maintenance

import (
	"fmt"

	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
)

// Report summarizes one vacuum pass over one table.
type Report struct {
	Table           string
	Heap            heap.VacuumStats
	IndexDead       int64 // tombstoned index entries removed
	IndexesRepaired int64 // indexes whose Maintain pass removed entries
}

// VacuumTable vacuums one table: heap compaction (which also rebuilds
// the reservoir sample) followed by a Maintain pass on every mutable
// index. Callers must hold the database's statement gate exclusively —
// the SQL executor does; this function does not take it
// so the executor can vacuum while already holding it.
func VacuumTable(d *db.DB, table string) (Report, error) {
	tbl, err := d.Table(table)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: table}
	rep.Heap, err = tbl.Vacuum()
	if err != nil {
		return rep, err
	}
	for _, im := range d.Catalog().IndexesOn(table) {
		idx, err := d.Index(im.Name)
		if err != nil {
			continue // catalogued but not rebuilt this session
		}
		removed, err := idx.Maintain()
		if err != nil {
			return rep, fmt.Errorf("maintenance: index %q: %w", im.Name, err)
		}
		rep.IndexDead += removed
		if removed > 0 {
			rep.IndexesRepaired++
		}
	}
	d.NoteVacuum(rep.Heap.DeadReclaimed+rep.IndexDead, rep.IndexesRepaired)
	return rep, nil
}

// VacuumAll vacuums every catalogued table. Same gate contract as
// VacuumTable.
func VacuumAll(d *db.DB) ([]Report, error) {
	var reps []Report
	for _, tm := range d.Catalog().Tables() {
		rep, err := VacuumTable(d, tm.Name)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}
