// Package core ties the substrates together into the study's analysis
// pipeline: a trace (generated or loaded) is accumulated into
// communication matrices, the hardware-agnostic MPI-level metrics are
// computed from the point-to-point matrix, and the wire matrix is driven
// over the three topology models to produce the system-level metrics.
// The experiment drivers that regenerate each of the paper's tables and
// figures live in experiments.go.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/metrics"
	"netloc/internal/mpi"
	"netloc/internal/netmodel"
	"netloc/internal/obs"
	"netloc/internal/parallel"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// Options configures an analysis run.
type Options struct {
	// Coverage is the traffic-share threshold of the 90% rules;
	// metrics.DefaultCoverage when zero.
	Coverage float64
	// PacketSize is the packetization granularity;
	// comm.DefaultPacketSize when zero.
	PacketSize int
	// BandwidthBytesPerSec is the per-link bandwidth;
	// netmodel.DefaultBandwidth when zero.
	BandwidthBytesPerSec float64
	// Strategy selects the collective-expansion algorithm; the zero
	// value is the paper's direct translation (see mpi.Strategy).
	Strategy mpi.Strategy
	// SkipTopologies computes only the MPI-level metrics.
	SkipTopologies bool
	// SkipLinkTracking skips per-link accounting (utilization and the
	// global-link share stay zero) for faster hop-only runs.
	SkipLinkTracking bool
	// MaxRanks caps the configuration grid: experiment drivers skip
	// configurations (and topology sizes) above it. Zero means no cap.
	// Used by tests and the analysis service to bound run time.
	MaxRanks int
	// Parallelism caps the worker goroutines one analysis may use for
	// the experiment-grid fan-out, the per-topology model runs, the
	// per-rank metric loops, and sharded trace accumulation. Zero means
	// GOMAXPROCS; 1 runs fully sequentially. Results are identical at
	// every setting (all fan-out is index-addressed and reductions stay
	// in index order), so Parallelism never affects cache keys.
	Parallelism int
	// Budget optionally shares one worker-token pool across concurrent
	// analyses: the analysis service passes its request-admission
	// budget so request-level and intra-request parallelism draw from
	// the same pool instead of oversubscribing. Nil means a private
	// budget per top-level analysis call.
	Budget *parallel.Budget
	// Cache optionally shares a workload artifact cache across analyses:
	// generated traces and accumulated matrices are memoized per
	// (app, ranks, accumulate options), so the experiment drivers, the
	// design sweep, and the service re-derive each artifact once instead
	// of once per grid cell. Cached artifacts are shared read-only and
	// results are byte-identical with the cache cold, warm, or nil
	// (disabled), so — like Parallelism — the cache never belongs in a
	// result-cache key. Uploaded traces (AnalyzeTrace) are deliberately
	// never cached: their content is caller-controlled and must not
	// satisfy later registry lookups.
	Cache *workcache.Cache
	// Span optionally attaches an observability span: the pipeline
	// records each stage (generate, accumulate, mpi_metrics, mapping,
	// netmodel, simnet) as a child with its duration and work counts,
	// and experiment drivers wrap each grid cell. Purely observational:
	// results are byte-identical with or without a span (a nil span is
	// a no-op).
	Span *obs.Span
}

// workers resolves the Parallelism knob (0 = GOMAXPROCS).
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// WithEngine installs a private worker budget when none was supplied,
// so the nested fan-out levels of one analysis (grid × topologies ×
// per-rank loops) share a single token pool. Every public entry point,
// core's and design's, calls it; repeated application is a no-op.
func (o Options) WithEngine() Options {
	if o.Budget == nil && o.workers() > 1 {
		// The calling goroutine holds no token, so the extras' budget
		// is one less than the worker cap.
		o.Budget = parallel.NewBudget(o.workers() - 1)
	}
	return o
}

// Runner returns the scheduler one fan-out level should use.
func (o Options) Runner() parallel.Runner {
	if o.workers() <= 1 || o.Budget == nil {
		return parallel.Seq()
	}
	return parallel.Shared(o.Budget, o.workers())
}

// engine returns the metrics engine bound to the options' runner.
func (o Options) engine() metrics.Engine {
	return metrics.Engine{Run: o.Runner()}
}

// withinCap reports whether a rank count passes the MaxRanks cap.
func (o Options) withinCap(ranks int) bool {
	return o.MaxRanks == 0 || ranks <= o.MaxRanks
}

func (o Options) coverage() float64 {
	if o.Coverage == 0 {
		return metrics.DefaultCoverage
	}
	return o.Coverage
}

// TopoResult holds the system-level metrics of one topology (one
// topology-block of a Table 3 row).
type TopoResult struct {
	Config     topology.Config
	PacketHops uint64
	Packets    uint64
	AvgHops    float64
	// UtilizationPct is meaningful only when UtilizationValid is set;
	// a run without a wall time (eq. 5's denominator) reports the
	// paper's N/A instead of a misleading 0.
	UtilizationPct   float64
	UtilizationValid bool
	UsedLinks        int
	// GlobalMsgShare is the fraction of messages crossing a global link
	// (meaningful for the dragonfly and the fat-tree top stage).
	GlobalMsgShare float64
}

// Analysis is the full result for one workload configuration: one row of
// Table 1 plus one row of Table 3.
type Analysis struct {
	App      string
	Ranks    int
	WallTime float64

	// Table 1 accounting (caller-side volumes).
	VolMB    float64
	P2PPct   float64
	CollPct  float64
	RateMBps float64

	// MPI-level metrics (Table 3, left block). HasP2P is false for
	// purely collective workloads, for which the paper reports N/A.
	HasP2P       bool
	Peers        int
	RankDistance float64
	RankLocality float64 // percent
	Selectivity  float64

	// System-level metrics per topology (Table 3, right blocks); nil
	// when Options.SkipTopologies is set.
	Torus     *TopoResult
	FatTree   *TopoResult
	Dragonfly *TopoResult

	// Extreme-scale families beyond the paper's study, populated only
	// when AnalyzeAppOn selects them explicitly (omitted from JSON
	// otherwise, so the paper-table encodings stay byte-stable).
	SlimFly   *TopoResult `json:",omitempty"`
	Jellyfish *TopoResult `json:",omitempty"`
	HyperX    *TopoResult `json:",omitempty"`

	// Acc retains the accumulated matrices for follow-up analyses
	// (figures, multi-core study, mapping experiments). It is excluded
	// from JSON encodings: the matrices are large and internal.
	Acc *comm.Accumulated `json:"-"`
}

// AnalyzeTrace runs the full pipeline on a materialized trace. Long
// event streams are accumulated in shards across the options' worker
// budget and merged; the matrices are exact sums either way. The trace
// is treated as caller-supplied: it is never read from or written to
// Options.Cache, so an uploaded trace claiming a registry app's name
// cannot poison later registry analyses.
func AnalyzeTrace(t *trace.Trace, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	acc, err := Accumulate(t, opts)
	if err != nil {
		return nil, err
	}
	return AnalyzeAccumulated(acc, opts)
}

// Accumulate expands and packetizes a trace into the communication
// matrices under a stage span. The span ends on every path (a failing
// expansion must not leave an unterminated span in the debug ring).
func Accumulate(t *trace.Trace, opts Options) (*comm.Accumulated, error) {
	sp := opts.Span.Start("accumulate")
	defer sp.End()
	// The workload label rides along as span metadata so exported traces
	// (obs.WriteChromeTrace) name the cell each stage worked on.
	sp.SetLabel(fmt.Sprintf("%s/%d", t.Meta.App, t.Meta.Ranks))
	sp.Add("events", int64(len(t.Events)))
	acc, err := comm.AccumulateParallel(t,
		comm.AccumulateOptions{PacketSize: opts.PacketSize, Strategy: opts.Strategy}, opts.Runner())
	if err != nil {
		return nil, err
	}
	sp.Add("shards", int64(acc.Shards))
	return acc, nil
}

// AnalyzeAccumulated runs the pipeline on pre-accumulated matrices.
func AnalyzeAccumulated(acc *comm.Accumulated, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	q := opts.coverage()
	a := &Analysis{
		App:      acc.Meta.App,
		Ranks:    acc.Meta.Ranks,
		WallTime: acc.Meta.WallTime,
		Acc:      acc,
	}
	totalCaller := acc.CallerP2PBytes + acc.CallerCollBytes
	a.VolMB = float64(totalCaller) / 1e6
	if totalCaller > 0 {
		a.P2PPct = 100 * float64(acc.CallerP2PBytes) / float64(totalCaller)
		a.CollPct = 100 - a.P2PPct
	}
	if acc.Meta.WallTime > 0 {
		a.RateMBps = a.VolMB / acc.Meta.WallTime
	}

	if acc.P2P.TotalBytes() > 0 {
		a.HasP2P = true
		sp := opts.Span.Start("mpi_metrics")
		sp.SetLabel(fmt.Sprintf("%s/%d", acc.Meta.App, acc.Meta.Ranks))
		a.Peers, _ = metrics.Peers(acc.P2P)
		sp.Add("peers", int64(a.Peers))
		eng := opts.engine()
		var err error
		a.RankDistance, err = eng.RankDistance(acc.P2P, q)
		if err == nil {
			a.RankLocality, err = eng.RankLocality(acc.P2P, q)
		}
		if err == nil {
			a.Selectivity, err = eng.Selectivity(acc.P2P, q)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}

	if !opts.SkipTopologies {
		torCfg, ftCfg, dfCfg, err := topology.Configs(a.Ranks)
		if err != nil {
			return nil, err
		}
		cfgs := []topology.Config{torCfg, ftCfg, dfCfg}
		results, err := runGrid(opts.Runner(), len(cfgs), func(i int) (*TopoResult, error) {
			res, err := runTopology(acc, cfgs[i], MappingConsecutive, opts, opts.Span)
			if err != nil {
				return nil, fmt.Errorf("core: %s on %s%s: %w", a.App, cfgs[i].Kind, cfgs[i], err)
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		for i, cfg := range cfgs {
			switch cfg.Kind {
			case "torus":
				a.Torus = results[i]
			case "fattree":
				a.FatTree = results[i]
			case "dragonfly":
				a.Dragonfly = results[i]
			}
		}
	}
	return a, nil
}

// runGrid evaluates fn for every index of an n-item grid on the given
// runner. Result i always lands at index i (table order is preserved),
// and when several items fail the lowest-index error is returned — the
// same one the sequential loop would have reported first.
func runGrid[T any](run parallel.Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	if n == 0 {
		return nil, nil // keep the sequential loops' nil result (JSON null)
	}
	out := make([]T, n)
	err := run.ForEachErr(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Named rank→node mapping strategies accepted by BuildMapping and
// AnalyzeAppOn. MappingConsecutive is the paper's default.
const (
	MappingConsecutive = "consecutive"
	MappingRandom      = "random"
	MappingGreedy      = "greedy"
	MappingRefined     = "refined"
)

// MappingNames lists the known mapping strategies in preference order.
func MappingNames() []string {
	return []string{MappingConsecutive, MappingRandom, MappingGreedy, MappingRefined}
}

// BuildMapping constructs a named rank→node mapping for a topology. The
// empty name means the paper's consecutive default; "random" uses a fixed
// seed so results stay deterministic.
func BuildMapping(name string, acc *comm.Accumulated, topo topology.Topology) (*mapping.Mapping, error) {
	switch name {
	case "", MappingConsecutive:
		return mapping.Consecutive(acc.Meta.Ranks, topo.Nodes())
	case MappingRandom:
		return mapping.Random(acc.Meta.Ranks, topo.Nodes(), 1)
	case MappingGreedy:
		return mapping.Greedy(acc.Wire, topo)
	case MappingRefined:
		return mapping.Optimize(acc.Wire, topo, 2)
	}
	return nil, fmt.Errorf("core: unknown mapping %q (known: %v)", name, MappingNames())
}

// AnalysisKinds lists the topology kinds AnalyzeAppOn accepts: the
// paper's three families plus the extreme-scale additions.
func AnalysisKinds() []string {
	return []string{"torus", "fattree", "dragonfly", "slimfly", "jellyfish", "hyperx"}
}

// ConfigFor returns the sized configuration of one topology kind for a
// rank count: the Table 2 entry for the paper's families, the ladder
// sizing for the extreme-scale ones.
func ConfigFor(kind string, ranks int) (topology.Config, error) {
	switch kind {
	case "torus":
		return topology.TorusConfig(ranks)
	case "fattree":
		return topology.FatTreeConfig(ranks)
	case "dragonfly":
		return topology.DragonflyConfig(ranks)
	case "slimfly":
		return topology.SlimFlyConfig(ranks)
	case "jellyfish":
		return topology.JellyfishConfig(ranks)
	case "hyperx":
		return topology.HyperXConfig(ranks)
	}
	return topology.Config{}, fmt.Errorf("core: unknown topology %q (known: %v)", kind, AnalysisKinds())
}

func runTopology(acc *comm.Accumulated, cfg topology.Config, mappingName string, opts Options, parent *obs.Span) (*TopoResult, error) {
	topo, err := opts.Cache.Topology(cfg, cfg.Build)
	if err != nil {
		return nil, err
	}
	msp := parent.Start("mapping")
	msp.SetLabel(mappingName)
	mp, err := BuildMapping(mappingName, acc, topo)
	msp.End()
	if err != nil {
		return nil, err
	}
	nsp := parent.Start("netmodel")
	nsp.SetLabel(cfg.Kind)
	res, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{
		BandwidthBytesPerSec: opts.BandwidthBytesPerSec,
		WallTime:             acc.Meta.WallTime,
		TrackLinks:           !opts.SkipLinkTracking,
	})
	if err != nil {
		nsp.End()
		return nil, err
	}
	nsp.Add("packets", int64(res.Packets))
	nsp.Add("packet_hops", int64(res.PacketHops))
	nsp.Add("used_links", int64(res.UsedLinks))
	nsp.Add("max_link_bytes", int64(res.MaxLinkBytes))
	nsp.End()
	return &TopoResult{
		Config:           cfg,
		PacketHops:       res.PacketHops,
		Packets:          res.Packets,
		AvgHops:          res.AvgHops,
		UtilizationPct:   res.UtilizationPct,
		UtilizationValid: res.UtilizationValid,
		UsedLinks:        res.UsedLinks,
		GlobalMsgShare:   res.GlobalMsgShare,
	}, nil
}

// AnalyzeAppOn analyzes one workload configuration on a selected topology
// kind (see AnalysisKinds; "" / "all" means the paper's three families)
// under a named rank→node mapping (see MappingNames; "" means
// consecutive). It backs the service's /v1/analyze endpoint. The returned
// Analysis carries only the selected topology block(s); Acc is released.
func AnalyzeAppOn(name string, ranks int, topoKind, mappingName string, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	o := opts
	o.SkipTopologies = true
	a, err := AnalyzeApp(name, ranks, o)
	if err != nil {
		return nil, err
	}
	kinds := []string{"torus", "fattree", "dragonfly"}
	if topoKind != "" && topoKind != "all" {
		kinds = []string{topoKind}
	}
	results, err := runGrid(opts.Runner(), len(kinds), func(i int) (*TopoResult, error) {
		cfg, err := ConfigFor(kinds[i], ranks)
		if err != nil {
			return nil, err
		}
		res, err := runTopology(a.Acc, cfg, mappingName, opts, opts.Span)
		if err != nil {
			return nil, fmt.Errorf("core: %s on %s%s: %w", name, cfg.Kind, cfg, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, kind := range kinds {
		switch kind {
		case "torus":
			a.Torus = results[i]
		case "fattree":
			a.FatTree = results[i]
		case "dragonfly":
			a.Dragonfly = results[i]
		case "slimfly":
			a.SlimFly = results[i]
		case "jellyfish":
			a.Jellyfish = results[i]
		case "hyperx":
			a.HyperX = results[i]
		}
	}
	a.Acc = nil
	return a, nil
}

// AnalyzeApp generates the synthetic trace for a workload configuration
// and analyzes it. With Options.Cache attached both the generated trace
// and the accumulated matrices are memoized, so a warm analysis skips
// straight to the metric and topology stages.
func AnalyzeApp(name string, ranks int, opts Options) (*Analysis, error) {
	app, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	opts = opts.WithEngine()
	acc, err := opts.Cache.Accumulated(opts.accKey(app.Name, ranks), func() (*comm.Accumulated, error) {
		t, err := generateTrace(app, ranks, opts)
		if err != nil {
			return nil, err
		}
		return Accumulate(t, opts)
	})
	if err != nil {
		return nil, err
	}
	return AnalyzeAccumulated(acc, opts)
}

// accKey addresses an app's accumulated matrices in the artifact cache:
// the registry generator plus the two options that change matrix
// content (packet size, collective strategy). Coverage, parallelism,
// budgets, and spans never do and stay out.
func (o Options) accKey(app string, ranks int) workcache.AccKey {
	return workcache.AccKey{
		Source: workcache.SourceGenerate, App: app, Ranks: ranks,
		PacketSize: o.PacketSize, Strategy: o.Strategy,
	}
}

// generateTrace runs (or re-uses the cached result of) a registry app's
// exact-scale generator under a "generate" stage span. The span ends on
// every path, including a failing generator.
func generateTrace(app *workloads.App, ranks int, opts Options) (*trace.Trace, error) {
	k := workcache.TraceKey{Source: workcache.SourceGenerate, App: app.Name, Ranks: ranks}
	return opts.Cache.Trace(k, func() (*trace.Trace, error) {
		sp := opts.Span.Start("generate")
		defer sp.End()
		sp.SetLabel(fmt.Sprintf("%s/%d", app.Name, ranks))
		t, err := app.Generate(ranks)
		if err != nil {
			return nil, err
		}
		sp.Add("events", int64(len(t.Events)))
		return t, nil
	})
}

// ErrNoSuchExperiment is returned by RunExperiment for unknown IDs.
var ErrNoSuchExperiment = errors.New("core: unknown experiment")
