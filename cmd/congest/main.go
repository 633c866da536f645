// Command congest runs the temporal congestion study offline: each
// requested workload is replayed through internal/congest's event-driven
// simulator on one sized topology per requested family (default the
// paper's Table 2 torus, fat tree, and dragonfly) under the selected
// routing policies, with an optional latency-tolerance sweep on the
// baseline rows. It is the CLI twin of netlocd's POST /v1/congestion.
//
// Usage:
//
//	congest                                       # default grid, all policies
//	congest -workloads LULESH/64,BigFFT/100       # pick the workload cells
//	congest -families slimfly,hyperx              # beyond the paper's trio
//	congest -policies minimal,ugal -growth 10     # policies and sweep threshold
//	congest -growth -1                            # disable the tolerance sweep
//	congest -list                                 # list workloads and policies
//
// Flags:
//
//	-workloads string  comma-separated App/ranks cells (default the study grid)
//	-families string   comma-separated topology families (default torus,fattree,dragonfly)
//	-policies string   comma-separated routing policies (default all)
//	-growth float      tolerance sweep threshold in percent (0 = default, <0 = off)
//	-maxranks int      cap the grid at this rank count (0 = no cap)
//	-j int             worker goroutines (0 = GOMAXPROCS, 1 = sequential)
//	-csv               emit CSV instead of aligned text
//	-json              emit structured JSON (the service's encoding)
//	-trace-out file    write the run's stage spans as Chrome trace-event JSON
//	-list              list default workloads and known policies
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"netloc/internal/congest"
	"netloc/internal/core"
	"netloc/internal/obs"
	"netloc/internal/report"
)

func main() {
	var (
		workloads = flag.String("workloads", "", "comma-separated App/ranks cells (default the study grid)")
		families  = flag.String("families", "", "comma-separated topology families (default torus,fattree,dragonfly)")
		policies  = flag.String("policies", "", "comma-separated routing policies (default all)")
		growth    = flag.Float64("growth", 0, "tolerance sweep threshold in percent (0 = default, <0 = off)")
		maxRanks  = flag.Int("maxranks", 0, "cap the grid at this rank count (0 = no cap)")
		workers   = flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		asJSON    = flag.Bool("json", false, "emit structured JSON")
		traceOut  = flag.String("trace-out", "", "write the run's stage spans as Chrome trace-event JSON to this file")
		list      = flag.Bool("list", false, "list default workloads and known policies")
	)
	flag.Parse()
	if *list {
		fmt.Println("workloads (default grid):")
		for _, ref := range core.CongestionWorkloads {
			fmt.Printf("  %s/%d\n", ref.App, ref.Ranks)
		}
		fmt.Println("families:")
		for _, fam := range core.AnalysisKinds() {
			fmt.Printf("  %s\n", fam)
		}
		fmt.Println("policies:")
		for _, p := range congest.Policies() {
			fmt.Printf("  %s\n", p)
		}
		return
	}
	refs, err := parseWorkloads(*workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "congest:", err)
		os.Exit(1)
	}
	var fams, pols []string
	if *families != "" {
		fams = strings.Split(*families, ",")
	}
	if *policies != "" {
		pols = strings.Split(*policies, ",")
	}
	opts := core.Options{Parallelism: *workers, MaxRanks: *maxRanks}
	var root *obs.Span
	if *traceOut != "" {
		root = obs.NewTracer(1).StartRun("congestion")
		opts.Span = root
	}
	err = run(os.Stdout, refs, fams, pols, *growth, opts, *csv, *asJSON)
	if root != nil {
		root.End()
		if werr := obs.WriteChromeTraceFile(*traceOut, root.Data()); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "congest:", err)
		os.Exit(1)
	}
}

// parseWorkloads reads "App/ranks,App/ranks" cells; an empty string
// selects the default study grid.
func parseWorkloads(s string) ([]core.WorkloadRef, error) {
	if s == "" {
		return nil, nil
	}
	var refs []core.WorkloadRef
	for _, cell := range strings.Split(s, ",") {
		i := strings.LastIndex(cell, "/")
		if i < 0 {
			return nil, fmt.Errorf("bad workload %q (want App/ranks, e.g. LULESH/64)", cell)
		}
		ranks, err := strconv.Atoi(cell[i+1:])
		if err != nil || ranks < 1 {
			return nil, fmt.Errorf("bad rank count in %q (want App/ranks, e.g. LULESH/64)", cell)
		}
		refs = append(refs, core.WorkloadRef{App: cell[:i], Ranks: ranks})
	}
	return refs, nil
}

func run(w io.Writer, refs []core.WorkloadRef, families, policies []string, growth float64, opts core.Options, csv, asJSON bool) error {
	// NaN would silently disable the sweep and +Inf would run it to a
	// bogus saturated bound (which JSON cannot even encode), so reject
	// both before any work runs.
	if math.IsNaN(growth) || math.IsInf(growth, 0) {
		return fmt.Errorf("bad -growth %g (need a finite percentage)", growth)
	}
	rows, err := core.CongestionTable(refs, families, policies, growth, opts)
	if err != nil {
		return err
	}
	if asJSON {
		return report.JSON(w, map[string]any{"experiment": "congestion", "rows": rows})
	}
	return report.Congestion(w, rows, csv)
}
