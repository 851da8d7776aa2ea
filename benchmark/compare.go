package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareRecords applies each end-to-end metric's bound to two sets of
// records, A (the base) and B. Each side's figure is the median over its
// records, and its spread is the distance between their quartiles (the
// whole range, with fewer than four records) as a share of that median. A
// row is unresolved when either spread is wider than the bound, worse when
// B is worse than A by more than the bound, ok otherwise. fail_share has no
// bound: any increase is worse.
func compareRecords(out io.Writer, aPaths, bPaths []string) (worse bool, err error) {
	a, err := loadRecords(aPaths)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(bPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %d record(s), B: %d record(s); ratio is B/A, base A\n", len(a), len(b))
	fmt.Fprintf(out, "%-13s %-13s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "A", "B", "ratio", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range workloads {
		rows := append([]endToEndDef(nil), endToEnd...)
		rows = append(rows, endToEndDef{Name: "fail_share", Unit: "ratio", Better: lower})
		for _, d := range rows {
			av, bv := valuesOf(a, w.Name, d.Name), valuesOf(b, w.Name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			as, bs := spread(av), spread(bv)
			verdict := "ok"
			switch {
			case as > d.Bound || bs > d.Bound:
				verdict = "unresolved"
			case d.Better == lower && bm > am*(1+d.Bound), d.Better == higher && bm < am*(1-d.Bound):
				verdict = "worse"
				worse = true
			}
			ratio := "-"
			if am != 0 {
				ratio = fmt.Sprintf("%.3f", bm/am)
			}
			fmt.Fprintf(out, "%-13s %-13s %12.4f %12.4f %8s %8.3f %8.3f %6.2f  %s\n", w.Name, d.Name, am, bm, ratio, as, bs, d.Bound, verdict)
		}
	}
	return worse, nil
}

func loadRecords(paths []string) ([]*record, error) {
	var recs []*record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rec := &record{}
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func valuesOf(recs []*record, workload, metric string) []float64 {
	var vals []float64
	for _, rec := range recs {
		if w, ok := rec.Workloads[workload]; ok {
			if v, ok := w.Metrics[metric]; ok {
				vals = append(vals, v.Value)
			}
		}
	}
	return vals
}

// spread is the run-to-run spread of a metric as a share of its median:
// the distance between the first and third quartile, as Python's
// statistics.quantiles(values, n=4) gives them, or the whole range when
// there are fewer than four values. One value has no spread to show.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}
