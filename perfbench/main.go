// Command perfbench is netloc's end-to-end benchmark. It runs one named
// workload against the public entry points of core, design and service,
// checks every output, and prints the end-to-end metrics; with --trace 1
// it instead makes the one traced run, which replays all four workloads
// through each layer's public functions under obs spans and prints the
// per-layer metrics. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare .perfbench/before .perfbench/after
//	bash perfbench/run.sh regen
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; every run also writes a
// ledger record with its metadata under --out.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many fresh processes set up each workload for
// setup_s, whose median is reported. A batch workload sets up in a few
// milliseconds, netlocd in about 0.2 s.
var setupRepeats = map[string]int{wlPaper: 21, wlCongestion: 21, wlDesign: 21, wlNetlocd: 5}

// readyLine is what a --setup-only child prints once set up.
const readyLine = "perfbench-ready"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if err := compareMain(os.Stdout, os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "regen":
			if err := regenDigests("perfbench/digests.json"); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		workload  = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", 1, "seed of the netlocd request schedule")
		seconds   = flag.Int("seconds", 25, "measured seconds")
		traced    = flag.Int("trace", 0, "1 makes the traced run (all workloads, per-layer metrics)")
		out       = flag.String("out", ".perfbench", "directory for the run ledger and the Chrome trace")
		setupOnly = flag.Bool("setup-only", false, "set the workload up, print "+readyLine+" and exit (used to time set-up)")
	)
	flag.Parse()
	if !knownWorkload(*workload) {
		fatal(fmt.Errorf("unknown --workload %q (known: %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	if *setupOnly {
		if err := setupOnce(*workload); err != nil {
			fatal(err)
		}
		fmt.Println(readyLine)
		return
	}
	rec := record{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Meta: collectMeta(), Metrics: map[string]metricValue{},
	}
	var err error
	if rec.Trace {
		err = tracedRun(&rec, *seed, *out)
	} else {
		err = timedRun(&rec, *workload, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal(err)
	}
	if err := finish(os.Stdout, rec, *out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// setupOnce performs a workload's set-up and discards it.
func setupOnce(workload string) error {
	if workload == wlNetlocd {
		env, err := newNetlocdEnv(0)
		if err != nil {
			return err
		}
		env.Close()
		return nil
	}
	_, err := newBatch(workload)
	return err
}

// timedRun measures one workload with tracing off.
func timedRun(rec *record, workload string, seed int64, d time.Duration) error {
	setup, err := measureSetup(workload, setupRepeats[workload])
	if err != nil {
		return err
	}
	rec.set("setup_s", setup, setupRepeats[workload])
	if workload == wlNetlocd {
		err = runNetlocd(rec, seed, d)
	} else {
		err = runBatch(rec, workload, d)
	}
	if err != nil {
		return err
	}
	rec.set("max_rss_mb", maxRSSMB(), 1)
	rec.set("error_rate", float64(rec.Failed)/float64(rec.Attempted), rec.Attempted)
	return nil
}

// measureSetup starts n fresh processes that each set the workload up
// and report ready, and returns the median time from starting a process
// to reading its ready line. That covers process start, package
// initialization and the workload's own set-up, so work moved into any
// of them shows.
func measureSetup(workload string, n int) (float64, error) {
	// run.sh starts the binary by its path in the checkout.
	self := os.Args[0]
	var times []float64
	for i := 0; i < n; i++ {
		t, err := setupChild(self, workload)
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	return median(times), nil
}

func setupChild(self, workload string) (float64, error) {
	cmd := exec.Command(self, "--setup-only", "--workload", workload)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("starting set-up process: %w", err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(start).Seconds()
	// Drain the pipe so the child never blocks on a full one, then reap it.
	_, _ = io.Copy(io.Discard, stdout)
	waitErr := cmd.Wait()
	if strings.TrimSpace(line) != readyLine {
		return 0, fmt.Errorf("set-up process for %s did not report ready (read %q: %v, exit: %v)", workload, line, readErr, waitErr)
	}
	if waitErr != nil {
		return 0, fmt.Errorf("set-up process for %s: %w", workload, waitErr)
	}
	return elapsed, nil
}

// maxRSSMB is the process's peak resident memory in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAllocMB is the cumulative heap allocation of the process in MB.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// metricValue is one measured value. Samples is how many observations
// stand behind it (iterations, rounds, requests, set-up processes);
// Percentile is set on tails and says which percentile was reported.
type metricValue struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
	Beyond     int     `json:"beyond,omitempty"`
}

// meta is the run metadata recorded with every result.
type meta struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Start      string `json:"start"`
}

// record is one run's ledger entry.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Meta      meta                   `json:"meta"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// set records a metric under its spec's unit.
func (r *record) set(name string, v float64, samples int) {
	s, ok := specOf(name)
	if !ok {
		panic("perfbench: metric without a spec: " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: s.Unit, Samples: samples}
}

// check counts one checked operation, keeping the first few errors.
func (r *record) check(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// finish prints the human-readable metric lines, writes the ledger
// record, and prints the result object as the last line.
func finish(w io.Writer, rec record, outDir string) error {
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v go=%s gomaxprocs=%d nproc=%d kernel=%s commit=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Meta.Go, rec.Meta.GOMAXPROCS, rec.Meta.NumCPU, rec.Meta.Kernel, rec.Meta.Commit)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-48s %14.6g %-6s n=%d", n, m.Value, m.Unit, m.Samples)
		if m.Percentile > 0 {
			fmt.Fprintf(w, " p%g beyond=%d", m.Percentile, m.Beyond)
		}
		fmt.Fprintln(w)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "# error:", e)
	}
	if err := writeRecord(rec, outDir); err != nil {
		return err
	}

	// The result line carries exactly the metrics BENCHMARK.json lists
	// for this mode.
	specs := endToEnd
	if rec.Trace {
		specs = perLayer
	}
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]lineValue{}}
	for _, s := range specs {
		m, ok := rec.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		line.Metrics[s.Name] = lineValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// writeRecord stores the ledger entry as
// <out>/runs/<workload>.trace<0|1>.seed<n>.json (the traced run covers
// every workload and is filed under "traced").
func writeRecord(rec record, outDir string) error {
	dir := filepath.Join(outDir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s.trace0.seed%d.json", rec.Workload, rec.Seed)
	if rec.Trace {
		name = fmt.Sprintf("traced.trace1.seed%d.json", rec.Seed)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func collectMeta() meta {
	m := meta{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		Commit:     gitCommit("."),
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		m.Kernel = string(b)
	}
	return m
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(l, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
