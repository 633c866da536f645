package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/report"
	"netloc/internal/workcache"
)

// digestsJSON holds the reference SHA-256 digests of the outputs that
// have no committed file of their own in the repository: the congestion
// and design CSVs and each netlocd upload response. `bash
// perfbench/run.sh regen` recomputes them from the current code.
//
//go:embed digests.json
var digestsJSON []byte

type digestSet struct {
	Congestion string            `json:"congestion-grid"`
	Design     string            `json:"design-search"`
	Uploads    map[string]string `json:"uploads"`
}

func loadDigests() (digestSet, error) {
	var d digestSet
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// table3CSV is the committed Table 3, which paper-grid must reproduce
// byte for byte. Paths are relative to the repository root.
const table3CSV = "results/table3.csv"

// The congestion grid: the stencil and the hypercube exchange load the
// link queues differently.
var congestionRefs = []core.WorkloadRef{{App: "LULESH", Ranks: 64}, {App: "Crystal Router", Ranks: 100}}

// designRequest is the design-search input, at default constraints.
var designRequest = design.Request{App: "LULESH", Ranks: 512}

// grid is a batch workload's top-level result.
type grid interface {
	// render prints the result as the CSV its correctness gate checks.
	render() ([]byte, error)
}

type table3Grid []*core.Analysis

type congestionRows []core.CongestionRow

type designSheet struct{ *design.Sheet }

func (g table3Grid) render() ([]byte, error) {
	return renderCSV(func(w io.Writer) error { return report.Table3(w, g, true) })
}

func (g congestionRows) render() ([]byte, error) {
	return renderCSV(func(w io.Writer) error { return report.Congestion(w, g, true) })
}

func (g designSheet) render() ([]byte, error) {
	return renderCSV(func(w io.Writer) error { return report.DesignSheet(w, g.Sheet, true) })
}

func renderCSV(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return buf.Bytes(), err
}

func runPaper(opts core.Options) (grid, error) {
	rows, err := core.Table3(opts)
	return table3Grid(rows), err
}

func runCongestion(opts core.Options) (grid, error) {
	rows, err := core.CongestionTable(congestionRefs, nil, nil, 0, opts)
	return congestionRows(rows), err
}

func runDesign(opts core.Options) (grid, error) {
	sheet, err := design.Search(designRequest, opts)
	return designSheet{sheet}, err
}

// batch is one of the three grid workloads: a top-level call and the
// check of its CSV.
type batch struct {
	run  func(opts core.Options) (grid, error)
	want func(csv []byte) error
}

// newBatch sets a batch workload up: it loads the reference its output
// is checked against.
func newBatch(name string) (*batch, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	b := &batch{}
	switch name {
	case wlPaper:
		ref, err := os.ReadFile(table3CSV)
		if err != nil {
			return nil, fmt.Errorf("reading the reference Table 3: %w", err)
		}
		b.run = runPaper
		b.want = func(csv []byte) error {
			if !bytes.Equal(csv, ref) {
				return fmt.Errorf("%s: CSV differs from %s", name, table3CSV)
			}
			return nil
		}
	case wlCongestion:
		b.run = runCongestion
		b.want = digestCheck(name, digests.Congestion)
	case wlDesign:
		b.run = runDesign
		b.want = digestCheck(name, digests.Design)
	default:
		return nil, fmt.Errorf("%s is not a batch workload", name)
	}
	return b, nil
}

func digestCheck(name, want string) func([]byte) error {
	return func(csv []byte) error {
		if got := sha256Hex(csv); got != want {
			return fmt.Errorf("%s: CSV digest %s, reference %s", name, got, want)
		}
		return nil
	}
}

// check renders a result and checks it against the reference.
func (b *batch) check(g grid) error {
	csv, err := g.render()
	if err != nil {
		return err
	}
	return b.want(csv)
}

// call makes one checked top-level call. Without a cache in opts it gets
// a fresh one, so every call pays the cold-cache cost a CLI invocation
// pays.
func (b *batch) call(opts core.Options) (grid, error) {
	if opts.Cache == nil {
		opts.Cache = workcache.New(0)
	}
	g, err := b.run(opts)
	if err != nil {
		return nil, err
	}
	return g, b.check(g)
}

// runBatch repeats the workload's top-level call at default parallelism
// for about d, checking every result. An iteration starts only if the
// median iteration so far still fits before the deadline, so the run
// ends close to d instead of overshooting by up to one iteration.
func runBatch(rec *record, name string, d time.Duration) error {
	b, err := newBatch(name)
	if err != nil {
		return err
	}
	var times, allocs []float64
	start := time.Now()
	for {
		// Collect the previous iteration's garbage outside the timed
		// region, so each iteration starts from the same heap.
		runtime.GC()
		a0 := totalAllocMB()
		t0 := time.Now()
		_, err := b.call(core.Options{})
		dt := time.Since(t0).Seconds()
		alloc := totalAllocMB() - a0
		rec.check(err)
		if err == nil {
			times = append(times, dt)
			allocs = append(allocs, alloc)
		}
		next := median(times)
		if len(times) == 0 {
			next = dt
		}
		if time.Since(start).Seconds()+next > d.Seconds() {
			break
		}
	}
	if len(times) == 0 {
		// Every iteration failed: report what was spent so the
		// result line stays complete; correct is false.
		times, allocs = []float64{time.Since(start).Seconds()}, []float64{totalAllocMB()}
	}
	rec.set("wall_s", median(times), len(times))
	rec.set("alloc_mb", median(allocs), len(allocs))
	return nil
}
