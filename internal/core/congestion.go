package core

import (
	"fmt"

	"netloc/internal/congest"
	"netloc/internal/mapping"
	"netloc/internal/obs"
	"netloc/internal/topology"
	"netloc/internal/trace"
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
		families = []string{"torus", "fattree", "dragonfly"}
	}
	if len(policies) == 0 {
		policies = congest.Policies()
	}
	return replayCells(refs, CongestionWorkloads, opts, func(ref WorkloadRef, tr *trace.Trace, cell *obs.Span) ([]CongestionRow, error) {
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
				// The spans end via defer on every path: a failing
				// simulation must not leave an unterminated span in the
				// debug ring.
				stats, err := func() (*congest.Stats, error) {
					csp := cell.Start("congest")
					defer csp.End()
					csp.SetLabel(fmt.Sprintf("%s/%s", topo.Kind(), policy))
					stats, err := congest.Simulate(tr, topo, mp, copts)
					if err != nil {
						return nil, fmt.Errorf("core: congestion %s/%d on %s (%s): %w",
							ref.App, ref.Ranks, topo.Name(), policy, err)
					}
					csp.Add("congest_sims", 1)
					csp.Add("congest_messages", int64(stats.Messages))
					return stats, nil
				}()
				if err != nil {
					return nil, err
				}
				row := CongestionRow{
					App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats,
				}
				// The tolerance sweep answers a per-(workload, topology)
				// question, so it runs once, attached to the baseline row.
				if policy == congest.PolicyMinimal && growthPct >= 0 {
					tol, err := func() (*congest.Tolerance, error) {
						tsp := cell.Start("tolerance")
						defer tsp.End()
						tsp.SetLabel(topo.Kind())
						tol, err := congest.LatencyTolerance(tr, topo, mp, copts, growthPct)
						if err != nil {
							return nil, fmt.Errorf("core: tolerance %s/%d on %s: %w",
								ref.App, ref.Ranks, topo.Name(), err)
						}
						tsp.Add("congest_probes", int64(tol.Probes))
						return tol, nil
					}()
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
}
