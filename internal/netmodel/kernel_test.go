package netmodel

import (
	"math/rand"
	"reflect"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

// routeWalk hides a topology's concrete type, so topology.NewFlowKernel
// falls back to the generic per-pair route walk: the reference every
// flow kernel is compared with.
type routeWalk struct{ topology.Topology }

// Run through each family's flow kernel must equal Run through the
// generic route walk, field for field, on random sparse and dense
// matrices under random mappings (some packing several ranks per node).
func TestRunKernelsMatchRouteWalk(t *testing.T) {
	build := func(cfg topology.Config, err error) topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	mesh, err := topology.TorusConfig(60)
	mesh.Kind = "mesh"
	topos := []topology.Topology{
		build(topology.TorusConfig(60)), build(mesh, err),
		build(topology.FatTreeConfig(40)), build(topology.FatTreeConfig(60)),
		build(topology.Config{Kind: "fattree", Radix: 8, Stages: 3}, nil),
		build(topology.DragonflyConfig(60)), build(topology.SlimFlyConfig(60)),
		build(topology.JellyfishConfig(60)), build(topology.HyperXConfig(60)),
	}
	for _, topo := range topos {
		if d, ok := topo.(*topology.Dragonfly); ok {
			v, err := topology.NewValiant(d, 5)
			if err != nil {
				t.Fatal(err)
			}
			topos = append(topos, v)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for _, topo := range topos {
		ranks := topo.Nodes()
		if ranks > 64 {
			ranks = 64
		}
		for _, density := range []int{8, 100} {
			m, err := comm.NewMatrix(ranks, 0)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < ranks; src++ {
				for dst := 0; dst < ranks; dst++ {
					if src != dst && rng.Intn(100) < density {
						if err := m.AddN(src, dst, uint64(1+rng.Intn(50000)), uint64(1+rng.Intn(4))); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			packed := make([]int, ranks)
			for r := range packed {
				packed[r] = rng.Intn(topo.Nodes()/2 + 1)
			}
			crowded, err := mapping.New(packed, topo.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			random, err := mapping.Random(ranks, topo.Nodes(), rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			cons, err := mapping.Consecutive(ranks, topo.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			for _, mp := range []*mapping.Mapping{cons, random, crowded} {
				opts := Options{WallTime: 2, TrackLinks: true}
				got, err := Run(m, topo, mp, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(m, routeWalk{topo}, mp, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, density %d%%: kernel result\n%+v\nwant\n%+v", topo.Name(), density, got, want)
				}
			}
		}
	}
}
