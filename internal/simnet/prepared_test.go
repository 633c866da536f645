package simnet

import (
	"reflect"
	"sync"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// designTopologies builds one sized topology of each of the seven
// families the design search sweeps.
func designTopologies(t testing.TB, ranks int) []topology.Topology {
	t.Helper()
	sized := []func(int) (topology.Config, error){
		topology.TorusConfig, topology.FatTreeConfig, topology.DragonflyConfig,
		topology.SlimFlyConfig, topology.JellyfishConfig, topology.HyperXConfig,
	}
	var out []topology.Topology
	for _, config := range sized {
		cfg, err := config(ranks)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	tc, err := topology.TorusConfig(ranks)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.NewMesh(tc.X, tc.Y, tc.Z)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, mesh)
}

// The design search reads Makespan, MeasuredUtilizationPct and Messages
// from makespan-only runs of one shared Prepared; each must be bit-equal
// to a fresh full Simulate, on every design family under both the
// consecutive and the greedy mapping. The prepared full run must equal
// Simulate field for field.
func TestMakespanRunMatchesSimulate(t *testing.T) {
	tr := genTrace(t, "LULESH", 64)
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range designTopologies(t, 64) {
		greedy, err := mapping.Greedy(acc.Wire, topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range []struct {
			name string
			mp   *mapping.Mapping
		}{{"consecutive", consecutive(t, 64, topo.Nodes())}, {"greedy", greedy}} {
			label := topo.Name() + "+" + mp.name
			want, err := Simulate(tr, topo, mp.mp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			full, err := prep.Simulate(topo, mp.mp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, want) {
				t.Errorf("%s: prepared full run %+v, Simulate %+v", label, full, want)
			}
			got, err := prep.Makespan(topo, mp.mp)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan || got.MeasuredUtilizationPct != want.MeasuredUtilizationPct ||
				got.Messages != want.Messages {
				t.Errorf("%s: makespan run (makespan %v, util %v, messages %d), Simulate (%v, %v, %d)", label,
					got.Makespan, got.MeasuredUtilizationPct, got.Messages,
					want.Makespan, want.MeasuredUtilizationPct, want.Messages)
			}
		}
	}
}

// Prepare rejects what it can check without a topology; a run rejects
// mappings that do not fit the trace or the topology.
func TestPreparedRunValidation(t *testing.T) {
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 100},
		},
	}
	prep, err := Prepare(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	topo := torus222(t)
	if _, err := prep.Makespan(topo, consecutive(t, 4, 8)); err == nil {
		t.Fatal("undersized mapping accepted")
	}
	wide, err := mapping.Consecutive(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Simulate(topo, wide); err == nil {
		t.Fatal("mapping node space beyond the topology accepted")
	}
	if _, err := Prepare(tr, Options{PacketBytes: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// A design search runs one Prepared from every worker at once: runs
// share only read-only state, so concurrent runs on different
// topologies must each match their sequential result.
func TestPreparedConcurrentRuns(t *testing.T) {
	tr := genTrace(t, "LULESH", 64)
	prep, err := Prepare(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	topos := designTopologies(t, 64)
	want := make([]*Stats, len(topos))
	for i, topo := range topos {
		if want[i], err = prep.Simulate(topo, consecutive(t, 64, topo.Nodes())); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Stats, len(topos))
	errs := make([]error, len(topos))
	var wg sync.WaitGroup
	for i, topo := range topos {
		mp := consecutive(t, 64, topo.Nodes())
		wg.Add(1)
		go func(i int, topo topology.Topology) {
			defer wg.Done()
			got[i], errs[i] = prep.Simulate(topo, mp)
		}(i, topo)
	}
	wg.Wait()
	for i := range topos {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent run %+v, sequential %+v", topos[i].Name(), got[i], want[i])
		}
	}
}
