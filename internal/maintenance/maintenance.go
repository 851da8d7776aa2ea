// Package maintenance is the VACUUM-style worker for the dynamic-data
// subsystem: it reclaims dead heap space (page compaction), runs every
// index's Maintain pass (HNSW graph repair, IVF list
// compaction), and rebuilds the planner's reservoir sample. It runs in
// two modes: on demand (the SQL VACUUM statement, or the executor's
// auto-vacuum trigger when a table's dead fraction crosses SET
// vacuum_threshold) and periodically (Worker, the autovacuum-launcher
// analogue).
package maintenance

import (
	"fmt"
	"time"

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
// the SQL executor and Worker both do; this function does not take it
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

// Worker periodically vacuums tables whose dead fraction has crossed a
// threshold — the autovacuum launcher. Threshold is a callback so the
// server can wire it to the live SET vacuum_threshold value; a
// threshold of 0 (or less) disables the worker's sweeps without
// stopping it.
type Worker struct {
	d         *db.DB
	interval  time.Duration
	threshold func() float64
	stop      chan struct{}
	done      chan struct{}
}

// NewWorker creates a stopped worker. interval <= 0 defaults to 1s.
func NewWorker(d *db.DB, interval time.Duration, threshold func() float64) *Worker {
	if interval <= 0 {
		interval = time.Second
	}
	return &Worker{d: d, interval: interval, threshold: threshold}
}

// Start launches the background sweep loop. Calling Start on a running
// worker is a no-op.
func (w *Worker) Start() {
	if w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.loop(w.stop, w.done)
}

// Stop halts the sweep loop, waiting for an in-flight sweep to finish.
func (w *Worker) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
	w.stop, w.done = nil, nil
}

func (w *Worker) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.sweep()
		}
	}
}

// sweep vacuums every table whose dead fraction meets the threshold,
// taking the statement gate exclusively per table so queries interleave
// between tables rather than stalling for the whole sweep.
func (w *Worker) sweep() {
	th := w.threshold()
	if th <= 0 {
		return
	}
	for _, tm := range w.d.Catalog().Tables() {
		tbl, err := w.d.Table(tm.Name)
		if err != nil || tbl.DeadFraction() < th {
			continue
		}
		gate := w.d.StmtGate()
		gate.Lock()
		_, _ = VacuumTable(w.d, tm.Name)
		gate.Unlock()
	}
}
