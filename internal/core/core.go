// Package core ties the substrates together into the study's analysis
// pipeline: a trace (generated or loaded) is accumulated into
// communication matrices, the hardware-agnostic MPI-level metrics are
// computed from the point-to-point matrix, and the wire matrix is driven
// over the three topology models to produce the system-level metrics.
//
// The pipeline is one set of stages, each opening its own span and
// using the artifact cache: Generate, Matrices, the MPI-metrics stage,
// Model, and the cells grid loop the experiment drivers share. The
// analyze entry points, the experiment drivers (experiments.go, sim.go,
// congestion.go) and the design search all run through them.
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

	// System-level metrics per topology (Table 3, right blocks).
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
	// A trace no topology configuration covers fails in the model stage
	// anyway; fail before accumulation sizes per-rank tables by a rank
	// count the (possibly untrusted) header merely claims.
	if _, _, _, err := topology.Configs(t.Meta.Ranks); err != nil {
		return nil, err
	}
	acc, err := Matrices("", WorkloadRef{App: t.Meta.App, Ranks: t.Meta.Ranks},
		func() (*trace.Trace, error) { return t, nil }, opts)
	if err != nil {
		return nil, err
	}
	return AnalyzeAccumulated(acc, opts)
}

// AnalyzeAccumulated runs the MPI-metrics stage and the model stage of
// the paper's three topologies (consecutive mapping) on pre-accumulated
// matrices.
func AnalyzeAccumulated(acc *comm.Accumulated, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	a, err := mpiMetrics(acc, opts)
	if err != nil {
		return nil, err
	}
	if err := a.model(paperKinds(), MappingConsecutive, opts); err != nil {
		return nil, err
	}
	return a, nil
}

// Generate is the generate stage: it runs gen at ref's rank count under
// a "generate" span labelled "app/ranks", memoized in the artifact cache
// under (source, app, ranks). source names the generator kind
// (workcache.SourceGenerate for the registry's exact scales), so traces
// of different generators never satisfy each other's lookups. The span
// ends on every path, including a failing generator, whose error is not
// cached.
func Generate(source string, ref WorkloadRef, gen func(ranks int) (*trace.Trace, error), opts Options) (*trace.Trace, error) {
	k := workcache.TraceKey{Source: source, App: ref.App, Ranks: ref.Ranks}
	return opts.Cache.Trace(k, func() (*trace.Trace, error) {
		return stage(opts, "generate", fmt.Sprintf("%s/%d", ref.App, ref.Ranks), func(sp *obs.Span) (*trace.Trace, error) {
			t, err := gen(ref.Ranks)
			if err != nil {
				return nil, err
			}
			sp.Add("events", int64(len(t.Events)))
			return t, nil
		})
	})
}

// Matrices is the matrices stage: it expands and packetizes the trace
// load returns into the communication matrices under an "accumulate"
// span. The matrices of a generated trace (source names its generator,
// as for Generate) are memoized in the artifact cache together with the
// two options that change their content, packet size and collective
// strategy, so a warm call never loads the trace. An attached trace
// (source "") is never cached: caller-supplied content must not satisfy
// later registry lookups.
func Matrices(source string, ref WorkloadRef, load func() (*trace.Trace, error), opts Options) (*comm.Accumulated, error) {
	accumulate := func() (*comm.Accumulated, error) {
		t, err := load()
		if err != nil {
			return nil, err
		}
		// The workload label rides along as span metadata so exported
		// traces (obs.WriteChromeTrace) name the cell each stage worked on.
		return stage(opts, "accumulate", fmt.Sprintf("%s/%d", t.Meta.App, t.Meta.Ranks), func(sp *obs.Span) (*comm.Accumulated, error) {
			sp.Add("events", int64(len(t.Events)))
			acc, err := comm.AccumulateParallel(t,
				comm.AccumulateOptions{PacketSize: opts.PacketSize, Strategy: opts.Strategy}, opts.Runner())
			if err != nil {
				return nil, err
			}
			sp.Add("shards", int64(acc.Shards))
			return acc, nil
		})
	}
	if source == "" {
		return accumulate()
	}
	return opts.Cache.Accumulated(workcache.AccKey{
		Source: source, App: ref.App, Ranks: ref.Ranks,
		PacketSize: opts.PacketSize, Strategy: opts.Strategy,
	}, accumulate)
}

// mpiMetrics is the MPI-metrics stage: the Table 1 accounting of the
// matrices plus, for workloads with point-to-point traffic, the
// MPI-level metrics under an "mpi_metrics" span. The returned Analysis
// keeps acc and has no topology block yet.
func mpiMetrics(acc *comm.Accumulated, opts Options) (*Analysis, error) {
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
	if acc.P2P.TotalBytes() == 0 {
		return a, nil
	}
	a.HasP2P = true
	return stage(opts, "mpi_metrics", fmt.Sprintf("%s/%d", acc.Meta.App, acc.Meta.Ranks), func(sp *obs.Span) (*Analysis, error) {
		a.Peers, _ = metrics.Peers(acc.P2P)
		sp.Add("peers", int64(a.Peers))
		eng := opts.engine()
		var err error
		if a.RankDistance, err = eng.RankDistance(acc.P2P, q); err != nil {
			return nil, err
		}
		if a.RankLocality, err = eng.RankLocality(acc.P2P, q); err != nil {
			return nil, err
		}
		if a.Selectivity, err = eng.Selectivity(acc.P2P, q); err != nil {
			return nil, err
		}
		return a, nil
	})
}

// Model is the model stage of one built topology: it places the ranks
// with the named mapping strategy (see BuildMapping) under a "mapping"
// span and drives the wire matrix through the static network model, with
// per-link accounting, under a "netmodel" span. It returns the mapping
// too, so a flow-level replay of the same candidate can reuse it.
func Model(acc *comm.Accumulated, topo topology.Topology, mappingName string, opts Options) (*netmodel.Result, *mapping.Mapping, error) {
	mp, err := stage(opts, "mapping", mappingName, func(*obs.Span) (*mapping.Mapping, error) {
		return BuildMapping(mappingName, acc, topo)
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := stage(opts, "netmodel", topo.Kind(), func(sp *obs.Span) (*netmodel.Result, error) {
		res, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{
			BandwidthBytesPerSec: opts.BandwidthBytesPerSec,
			WallTime:             acc.Meta.WallTime,
			TrackLinks:           true,
		})
		if err != nil {
			return nil, err
		}
		sp.Add("packets", int64(res.Packets))
		sp.Add("packet_hops", int64(res.PacketHops))
		sp.Add("used_links", int64(res.UsedLinks))
		sp.Add("max_link_bytes", int64(res.MaxLinkBytes))
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res, mp, nil
}

// model runs the model stage on the sized configuration of each topology
// kind (see ConfigFor) under one mapping strategy, fanned out over the
// options' runner, and stores each result in its Analysis slot.
func (a *Analysis) model(kinds []string, mappingName string, opts Options) error {
	cfgs := make([]topology.Config, len(kinds))
	slots := make([]**TopoResult, len(kinds))
	for i, kind := range kinds {
		k, err := lookupKind(kind)
		if err == nil {
			cfgs[i], err = k.size(a.Ranks)
		}
		if err != nil {
			return err
		}
		slots[i] = k.slot(a)
	}
	results, err := runGrid(opts.Runner(), len(cfgs), func(i int) (*TopoResult, error) {
		cfg := cfgs[i]
		topo, err := opts.Cache.Topology(cfg, cfg.Build)
		var res *netmodel.Result
		if err == nil {
			res, _, err = Model(a.Acc, topo, mappingName, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s on %s%s: %w", a.App, cfg.Kind, cfg, err)
		}
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
	})
	if err != nil {
		return err
	}
	for i, slot := range slots {
		*slot = results[i]
	}
	return nil
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

// cells is the experiment grid loop: every configuration of refs within
// the MaxRanks cap runs fn on the options' runner under its own "cell"
// span, labelled "app/ranks", to which fn's stages attach through the
// span of the options fn is given. Results keep refs order regardless of
// Parallelism (see runGrid). Callers install the engine
// (Options.WithEngine) first.
func cells[T any](refs []WorkloadRef, opts Options, fn func(ref WorkloadRef, o Options) (T, error)) ([]T, error) {
	var capped []WorkloadRef
	for _, ref := range refs {
		if opts.withinCap(ref.Ranks) {
			capped = append(capped, ref)
		}
	}
	return runGrid(opts.Runner(), len(capped), func(i int) (T, error) {
		ref := capped[i]
		return stage(opts, "cell", fmt.Sprintf("%s/%d", ref.App, ref.Ranks), func(cell *obs.Span) (T, error) {
			o := opts
			o.Span = cell
			return fn(ref, o)
		})
	})
}

// stage runs fn as one pipeline stage, under a child span of opts.Span
// named name and labelled label. The span ends on every path: a failing
// stage must not leave an unterminated span in the debug ring.
func stage[T any](opts Options, name, label string, fn func(sp *obs.Span) (T, error)) (T, error) {
	sp := opts.Span.Start(name)
	defer sp.End()
	sp.SetLabel(label)
	return fn(sp)
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

// analysisKind is one topology kind an analysis can model.
type analysisKind struct {
	kind string
	size func(ranks int) (topology.Config, error)
	slot func(a *Analysis) **TopoResult
}

// analysisKinds is the one table of the topology kinds an analysis
// models, in AnalysisKinds order: each kind's sizer (the Table 2 entry
// for the paper's families, the ladder sizing for the extreme-scale
// ones) and the Analysis field that holds its result.
var analysisKinds = []analysisKind{
	{"torus", topology.TorusConfig, func(a *Analysis) **TopoResult { return &a.Torus }},
	{"fattree", topology.FatTreeConfig, func(a *Analysis) **TopoResult { return &a.FatTree }},
	{"dragonfly", topology.DragonflyConfig, func(a *Analysis) **TopoResult { return &a.Dragonfly }},
	{"slimfly", topology.SlimFlyConfig, func(a *Analysis) **TopoResult { return &a.SlimFly }},
	{"jellyfish", topology.JellyfishConfig, func(a *Analysis) **TopoResult { return &a.Jellyfish }},
	{"hyperx", topology.HyperXConfig, func(a *Analysis) **TopoResult { return &a.HyperX }},
}

// AnalysisKinds lists the topology kinds AnalyzeAppOn accepts: the
// paper's three families plus the extreme-scale additions.
func AnalysisKinds() []string {
	out := make([]string, len(analysisKinds))
	for i, k := range analysisKinds {
		out[i] = k.kind
	}
	return out
}

// paperKinds lists the paper's three topology families in table order.
func paperKinds() []string { return AnalysisKinds()[:3] }

// ConfigFor returns the sized configuration of one topology kind for a
// rank count: the Table 2 entry for the paper's families, the ladder
// sizing for the extreme-scale ones.
func ConfigFor(kind string, ranks int) (topology.Config, error) {
	k, err := lookupKind(kind)
	if err != nil {
		return topology.Config{}, err
	}
	return k.size(ranks)
}

// lookupKind returns the analysisKinds entry of a topology kind.
func lookupKind(kind string) (analysisKind, error) {
	for _, k := range analysisKinds {
		if k.kind == kind {
			return k, nil
		}
	}
	return analysisKind{}, fmt.Errorf("core: unknown topology %q (known: %v)", kind, AnalysisKinds())
}

// AnalyzeAppOn analyzes one workload configuration on a selected topology
// kind (see AnalysisKinds; "" / "all" means the paper's three families)
// under a named rank→node mapping (see MappingNames; "" means
// consecutive). It backs the service's /v1/analyze endpoint. The returned
// Analysis carries only the selected topology block(s); Acc is released.
func AnalyzeAppOn(name string, ranks int, topoKind, mappingName string, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	a, err := appMetrics(WorkloadRef{App: name, Ranks: ranks}, opts)
	if err != nil {
		return nil, err
	}
	kinds := paperKinds()
	if topoKind != "" && topoKind != "all" {
		kinds = []string{topoKind}
	}
	if err := a.model(kinds, mappingName, opts); err != nil {
		return nil, err
	}
	a.Acc = nil
	return a, nil
}

// AnalyzeApp generates the synthetic trace for a workload configuration
// and analyzes it. With Options.Cache attached both the generated trace
// and the accumulated matrices are memoized, so a warm analysis skips
// straight to the metric and topology stages.
func AnalyzeApp(name string, ranks int, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	acc, err := appMatrices(WorkloadRef{App: name, Ranks: ranks}, opts)
	if err != nil {
		return nil, err
	}
	return AnalyzeAccumulated(acc, opts)
}

// appTrace runs the generate stage for a registry app at one of its
// configured scales.
func appTrace(ref WorkloadRef, opts Options) (*trace.Trace, error) {
	app, err := workloads.Lookup(ref.App)
	if err != nil {
		return nil, err
	}
	return Generate(workcache.SourceGenerate, ref, app.Generate, opts)
}

// appMatrices runs the matrices stage for a registry app, generating its
// trace only on a cache miss. An unknown app fails before any cache
// lookup.
func appMatrices(ref WorkloadRef, opts Options) (*comm.Accumulated, error) {
	if _, err := workloads.Lookup(ref.App); err != nil {
		return nil, err
	}
	return Matrices(workcache.SourceGenerate, ref,
		func() (*trace.Trace, error) { return appTrace(ref, opts) }, opts)
}

// appMetrics runs a registry app through the matrices and MPI-metrics
// stages; the Analysis keeps its matrices for the caller's follow-up.
func appMetrics(ref WorkloadRef, opts Options) (*Analysis, error) {
	acc, err := appMatrices(ref, opts)
	if err != nil {
		return nil, err
	}
	return mpiMetrics(acc, opts)
}

// ErrNoSuchExperiment is returned by RunExperiment for unknown IDs.
var ErrNoSuchExperiment = errors.New("core: unknown experiment")
