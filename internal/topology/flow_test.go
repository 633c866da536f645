package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// flowTopologies builds every family with a kernel of its own, in shapes
// that reach each routing case (fat trees of one, two and three stages;
// dragonflies with double-global shortcuts; meshes with size-1 and
// size-2 dimensions), plus the Valiant wrapper.
func flowTopologies(t *testing.T) []Topology {
	t.Helper()
	var out []Topology
	add := func(topo Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	add(NewTorus(4, 3, 2))
	add(NewTorus(2, 1, 5))
	add(NewMesh(3, 2, 4))
	add(NewMesh(1, 2, 3))
	add(NewFatTree(8, 1))
	add(NewFatTree(8, 2))
	add(NewFatTree(6, 3))
	add(NewDragonfly(4, 2, 2))
	add(NewDragonfly(3, 2, 1))
	add(NewSlimFly(5, 2))
	add(NewJellyfish(12, 4, 2, 7))
	add(NewHyperX(3, 2, 2, 2))
	d, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	add(NewValiant(d, 11))
	return out
}

// Every kernel must reproduce the generic route walk exactly — link
// loads and totals — whatever order the flows arrive in: node order
// (what netmodel feeds) or shuffled (which only costs extra flushes).
func TestFlowKernelsMatchRouteWalk(t *testing.T) {
	for _, topo := range flowTopologies(t) {
		n := topo.Nodes()
		rng := rand.New(rand.NewSource(int64(n)))
		type flow struct {
			src, dst          int
			bytes, msgs, pkts uint64
		}
		var flows []flow
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst && rng.Intn(3) > 0 {
					b := uint64(rng.Intn(100000))
					flows = append(flows, flow{src, dst, b, uint64(1 + rng.Intn(5)), (b + 4095) / 4096})
				}
			}
		}
		for _, order := range []string{"node", "shuffled"} {
			if order == "shuffled" {
				rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
			}
			want := make([]uint64, len(topo.Links()))
			got := make([]uint64, len(topo.Links()))
			ref := &routeKernel{t: topo, classes: topo.LinkClasses(), lb: want}
			k := NewFlowKernel(topo, got)
			for _, f := range flows {
				ref.Add(f.src, f.dst, f.bytes, f.msgs, f.pkts)
				k.Add(f.src, f.dst, f.bytes, f.msgs, f.pkts)
			}
			wantTot, err := ref.Finish()
			if err != nil {
				t.Fatal(err)
			}
			gotTot, err := k.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if gotTot != wantTot {
				t.Fatalf("%s (%s order, %T): totals %+v, want %+v", topo.Name(), order, k, gotTot, wantTot)
			}
			for li := range want {
				if got[li] != want[li] {
					t.Fatalf("%s (%s order, %T): link %d carries %d, want %d", topo.Name(), order, k, li, got[li], want[li])
				}
			}
		}
	}
}

// Kernels are chosen by concrete type. *Valiant embeds *Dragonfly, so it
// has every method the switch-pair kernel needs, but its routes detour
// through a pivot group hashed from the node IDs: it must keep the
// generic walk.
func TestFlowKernelDispatch(t *testing.T) {
	want := map[string]string{
		"torus": "*topology.torusKernel", "mesh": "*topology.torusKernel",
		"fattree": "*topology.fatTreeKernel", "dragonfly": "*topology.switchKernel",
		"slimfly": "*topology.switchKernel", "jellyfish": "*topology.switchKernel",
		"hyperx": "*topology.switchKernel", "valiant-dragonfly": "*topology.routeKernel",
	}
	for _, topo := range flowTopologies(t) {
		k := NewFlowKernel(topo, make([]uint64, len(topo.Links())))
		if got := fmt.Sprintf("%T", k); got != want[topo.Kind()] {
			t.Errorf("%s: kernel %s, want %s", topo.Name(), got, want[topo.Kind()])
		}
	}
}
