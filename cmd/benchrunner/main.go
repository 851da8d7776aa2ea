// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp fig3
//	benchrunner -exp all -scale 0.02 -datasets sift1m,gist1m
//
// Output is plain text: one header block per experiment with the paper's
// reference result, then the measured rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vecstudy/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig2..fig19, tab3..tab5, ablation_*, qps_cluster) or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		scale    = flag.Float64("scale", 0.02, "dataset scale factor (1.0 = paper scale)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all six)")
		queries  = flag.Int("queries", 100, "max queries per dataset")
		clients  = flag.String("clients", "", "comma-separated client counts for -exp qps_cluster (default 1,2,4,8,16)")
		seed     = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "benchrunner: -exp required (or -list)")
		os.Exit(2)
	}
	cfg := &bench.Config{Scale: *scale, Queries: *queries, Seed: *seed, Out: os.Stdout}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *clients != "" {
		for _, c := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "benchrunner: bad -clients entry %q\n", c)
				os.Exit(2)
			}
			cfg.Clients = append(cfg.Clients, n)
		}
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		if err := bench.Run(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
	}
}
