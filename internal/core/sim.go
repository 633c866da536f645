package core

import (
	"fmt"
	"slices"

	"netloc/internal/mapping"
	"netloc/internal/obs"
	"netloc/internal/simnet"
	"netloc/internal/topology"
)

// SimRow is one row of the dynamic-effects table (an extension of the
// paper: its static model deliberately ignores timing, and names dynamic
// effects as future work). One row covers one workload configuration on
// one topology.
type SimRow struct {
	App      string
	Ranks    int
	Topology string
	simnet.Stats
}

// SimWorkloads lists the configurations the sim experiment covers by
// default: one small and one medium configuration per communication
// family, kept at sizes where the message-level simulation stays quick.
var SimWorkloads = []WorkloadRef{
	{App: "LULESH", Ranks: 64},
	{App: "MiniFE", Ranks: 144},
	{App: "CESAR MOCFE", Ranks: 64},
	{App: "Crystal Router", Ranks: 100},
	{App: "PARTISN", Ranks: 168},
	{App: "AMR_Miniapp", Ranks: 64},
	{App: "BigFFT", Ranks: 100},
}

// SimTable simulates each configuration on its Table 2 torus, fat tree,
// and dragonfly. Configurations fan out over the worker budget (each
// one generates its trace once and replays it on the three topologies
// in order); rows stay in table order regardless of Parallelism.
func SimTable(refs []WorkloadRef, opts Options) ([]SimRow, error) {
	opts = opts.WithEngine()
	if len(refs) == 0 {
		refs = SimWorkloads
	}
	perRef, err := cells(refs, opts, func(ref WorkloadRef, o Options) ([]SimRow, error) {
		tr, err := appTrace(ref, o)
		if err != nil {
			return nil, err
		}
		torCfg, ftCfg, dfCfg, err := topology.Configs(ref.Ranks)
		if err != nil {
			return nil, err
		}
		// The trace is expanded and release-sorted once for all three
		// topologies.
		prep, err := simnet.Prepare(tr, simnet.Options{
			BandwidthBytesPerSec: opts.BandwidthBytesPerSec,
			PacketBytes:          opts.PacketSize,
		})
		if err != nil {
			return nil, fmt.Errorf("core: sim %s/%d: %w", ref.App, ref.Ranks, err)
		}
		rows := make([]SimRow, 0, 3)
		for _, cfg := range []topology.Config{torCfg, ftCfg, dfCfg} {
			topo, err := opts.Cache.Topology(cfg, cfg.Build)
			if err != nil {
				return nil, err
			}
			mp, err := mapping.Consecutive(ref.Ranks, topo.Nodes())
			if err != nil {
				return nil, err
			}
			stats, err := stage(o, "simnet", topo.Kind(), func(sp *obs.Span) (*simnet.Stats, error) {
				stats, err := prep.Simulate(topo, mp)
				if err != nil {
					return nil, fmt.Errorf("core: sim %s/%d on %s: %w", ref.App, ref.Ranks, topo.Name(), err)
				}
				sp.Add("sim_messages", int64(stats.Messages))
				sp.Add("sim_hops", int64(stats.HopsTraversed))
				return stats, nil
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SimRow{
				App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perRef...), nil
}
