package core

import (
	"fmt"
	"slices"

	"netloc/internal/congest"
	"netloc/internal/mapping"
	"netloc/internal/obs"
	"netloc/internal/topology"
)

// CongestionRow is one cell of the congestion experiment grid: one
// workload configuration replayed on one topology under one routing
// policy through the temporal simulator.
type CongestionRow struct {
	App      string
	Ranks    int
	Topology string
	congest.Stats
	// Tolerance carries the latency-tolerance sweep for the baseline
	// (minimal-policy) row of each (workload, topology) pair; nil on the
	// other policy rows and when the sweep is disabled.
	Tolerance *congest.Tolerance `json:",omitempty"`
}

// CongestionWorkloads lists the configurations the congestion experiment
// covers by default: one representative per communication family, at
// sizes where the event-driven replay stays quick enough for RunAll.
var CongestionWorkloads = []WorkloadRef{
	{App: "LULESH", Ranks: 64},
	{App: "CESAR MOCFE", Ranks: 64},
	{App: "Crystal Router", Ranks: 100},
	{App: "BigFFT", Ranks: 100},
}

// CongestionTable replays each configuration on one sized topology per
// requested family (nil families means the paper's torus, fat tree, and
// dragonfly; see AnalysisKinds for the accepted names) under every
// requested routing policy (nil means all of congest.Policies, baseline
// first). growthPct sets the latency-tolerance threshold swept on each
// (workload, topology) baseline row: zero means congest.DefaultGrowthPct,
// negative disables the sweep. Configurations fan out over the worker
// budget exactly like SimTable; rows stay in grid order (workload,
// topology, policy) regardless of Options.Parallelism.
func CongestionTable(refs []WorkloadRef, families, policies []string, growthPct float64, opts Options) ([]CongestionRow, error) {
	opts = opts.WithEngine()
	if len(families) == 0 {
		families = paperKinds()
	}
	if len(policies) == 0 {
		policies = congest.Policies()
	}
	if len(refs) == 0 {
		refs = CongestionWorkloads
	}
	perRef, err := cells(refs, opts, func(ref WorkloadRef, o Options) ([]CongestionRow, error) {
		tr, err := appTrace(ref, o)
		if err != nil {
			return nil, err
		}
		cfgs := make([]topology.Config, 0, len(families))
		for _, fam := range families {
			cfg, err := ConfigFor(fam, ref.Ranks)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
		}
		rows := make([]CongestionRow, 0, len(cfgs)*len(policies))
		for _, cfg := range cfgs {
			topo, err := opts.Cache.Topology(cfg, cfg.Build)
			if err != nil {
				return nil, err
			}
			mp, err := mapping.Consecutive(ref.Ranks, topo.Nodes())
			if err != nil {
				return nil, err
			}
			for _, policy := range policies {
				copts := congest.Options{
					Policy:               policy,
					BandwidthBytesPerSec: opts.BandwidthBytesPerSec,
					PacketBytes:          opts.PacketSize,
				}
				stats, err := stage(o, "congest", fmt.Sprintf("%s/%s", topo.Kind(), policy), func(sp *obs.Span) (*congest.Stats, error) {
					stats, err := congest.Simulate(tr, topo, mp, copts)
					if err != nil {
						return nil, fmt.Errorf("core: congestion %s/%d on %s (%s): %w",
							ref.App, ref.Ranks, topo.Name(), policy, err)
					}
					sp.Add("congest_sims", 1)
					sp.Add("congest_messages", int64(stats.Messages))
					return stats, nil
				})
				if err != nil {
					return nil, err
				}
				row := CongestionRow{
					App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats,
				}
				// The tolerance sweep answers a per-(workload, topology)
				// question, so it runs once, attached to the baseline row.
				if policy == congest.PolicyMinimal && growthPct >= 0 {
					tol, err := stage(o, "tolerance", topo.Kind(), func(sp *obs.Span) (*congest.Tolerance, error) {
						tol, err := congest.LatencyTolerance(tr, topo, mp, copts, growthPct)
						if err != nil {
							return nil, fmt.Errorf("core: tolerance %s/%d on %s: %w",
								ref.App, ref.Ranks, topo.Name(), err)
						}
						sp.Add("congest_probes", int64(tol.Probes))
						return tol, nil
					})
					if err != nil {
						return nil, err
					}
					row.Tolerance = tol
				}
				rows = append(rows, row)
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perRef...), nil
}
