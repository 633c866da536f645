package topology

import "fmt"

// FatTree is a folded-Clos fat tree built from fixed-radix switches,
// following the paper's construction: every stage has the same number of
// switches, each using half its ports downward and half upward, except the
// top stage, which uses half as many switches with all ports downward
// ("only half the switches are used to connect all child switches").
//
// With radix r and d = r/2 downlinks per switch the supported
// configurations are:
//
//	stages = 1: a single r-port switch, r nodes (paper: 48)
//	stages = 2: d leaf switches × d nodes = d² nodes (paper: 576)
//	stages = 3: d pods × d leaves × d nodes = d³ nodes (paper: 13824)
//
// Minimal routing goes up to the lowest common stage and back down; hop
// counts are therefore 2, 4, or 6 depending on whether the two nodes share
// a leaf, a pod, or only the top stage.
type FatTree struct {
	radix  int
	stages int
	d      int // downlinks per switch = radix/2
	nodes  int

	links   []Link
	classes []LinkClass

	// Link-index lookup tables for deterministic routing. Parallel links
	// (two links between the same leaf/top or mid/top pair) are distinct
	// entries, so routing uses these tables rather than a pair index.
	termLink []int   // node -> terminal link
	leafMid  []int32 // stages==3: leaf*d + j -> link to mid j of the leaf's pod
	// midTop[(lower*d/2 + t)*2 + par] is parallel link par between lower
	// switch lower (a mid for stages==3, a leaf for stages==2) and top t
	// of the lower switch's top group.
	midTop []int32
}

// NewFatTree constructs a fat tree with the given switch radix and stage
// count. The radix must be even and at least 4; stages must be 1..3 (the
// configurations used by the study; Table 2 uses radix 48 throughout).
func NewFatTree(radix, stages int) (*FatTree, error) {
	if radix < 4 || radix%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree radix must be even and >= 4, got %d", radix)
	}
	if stages < 1 || stages > 3 {
		return nil, fmt.Errorf("topology: fat tree stages must be 1..3, got %d", stages)
	}
	d := radix / 2
	f := &FatTree{radix: radix, stages: stages, d: d}
	switch stages {
	case 1:
		f.nodes = radix
	case 2:
		f.nodes = d * d
	case 3:
		f.nodes = d * d * d
	}
	f.build()
	return f, nil
}

// Vertex layout:
//
//	0..nodes-1                 compute nodes
//	nodes..                    leaf switches (stage 1); for stages==1 the
//	                           single switch
//	then                       mid switches (stage 2, stages==3 only)
//	then                       top switches (last stage, stages>=2)
func (f *FatTree) build() {
	n, d := f.nodes, f.d
	f.termLink = make([]int, n)

	addLink := func(a, b int, class LinkClass) int {
		f.links = append(f.links, Link{A: a, B: b})
		f.classes = append(f.classes, class)
		return len(f.links) - 1
	}

	switch f.stages {
	case 1:
		sw := n // the only switch
		for v := 0; v < n; v++ {
			f.termLink[v] = addLink(v, sw, ClassTerminal)
		}

	case 2:
		leaves := n / d    // d leaf switches
		tops := leaves / 2 // half as many top switches
		leafBase := n
		topBase := n + leaves
		for v := 0; v < n; v++ {
			f.termLink[v] = addLink(v, leafBase+v/d, ClassTerminal)
		}
		// Each leaf spreads its d uplinks over the d/2 tops: two
		// parallel links per (leaf, top) pair.
		f.midTop = make([]int32, 0, leaves*tops*2)
		for l := 0; l < leaves; l++ {
			for t := 0; t < tops; t++ {
				f.midTop = append(f.midTop,
					int32(addLink(leafBase+l, topBase+t, ClassGlobal)),
					int32(addLink(leafBase+l, topBase+t, ClassGlobal)))
			}
		}

	case 3:
		leaves := n / d    // d*d leaf switches
		pods := leaves / d // d pods
		mids := leaves     // same count as leaves
		topGroups := d     // one top group per mid index j
		topsPerGroup := d / 2
		leafBase := n
		midBase := n + leaves
		topBase := n + leaves + mids
		for v := 0; v < n; v++ {
			f.termLink[v] = addLink(v, leafBase+v/d, ClassTerminal)
		}
		// Leaf l of pod P connects one link to each mid (P, j).
		f.leafMid = make([]int32, 0, leaves*d)
		for l := 0; l < leaves; l++ {
			pod := l / d
			for j := 0; j < d; j++ {
				f.leafMid = append(f.leafMid, int32(addLink(leafBase+l, midBase+pod*d+j, ClassLocal)))
			}
		}
		// Mid (P, j) connects two parallel links to each top (j, k).
		f.midTop = make([]int32, 0, mids*topsPerGroup*2)
		for m := 0; m < mids; m++ {
			j := m % d
			for k := 0; k < topsPerGroup; k++ {
				top := topBase + j*topsPerGroup + k
				f.midTop = append(f.midTop,
					int32(addLink(midBase+m, top, ClassGlobal)),
					int32(addLink(midBase+m, top, ClassGlobal)))
			}
		}
		_ = pods
		_ = topGroups
	}
}

// Radix returns the switch radix.
func (f *FatTree) Radix() int { return f.radix }

// Stages returns the number of stages.
func (f *FatTree) Stages() int { return f.stages }

// Name implements Topology.
func (f *FatTree) Name() string { return fmt.Sprintf("fattree(%d,%d)", f.radix, f.stages) }

// Kind implements Topology.
func (f *FatTree) Kind() string { return "fattree" }

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.nodes }

// NumVertices implements Topology.
func (f *FatTree) NumVertices() int {
	n, d := f.nodes, f.d
	switch f.stages {
	case 1:
		return n + 1
	case 2:
		return n + n/d + n/d/2
	default: // 3
		return n + 2*(n/d) + d*(d/2)
	}
}

// Links implements Topology.
func (f *FatTree) Links() []Link { return f.links }

// LinkClasses implements Topology.
func (f *FatTree) LinkClasses() []LinkClass { return f.classes }

// leafOf returns the leaf-switch index (0-based within the leaf stage) of a
// node.
func (f *FatTree) leafOf(v int) int { return v / f.d }

// podOf returns the pod index of a node (stages==3).
func (f *FatTree) podOf(v int) int { return v / (f.d * f.d) }

// HopCount implements Topology.
func (f *FatTree) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	switch f.stages {
	case 1:
		return 2
	case 2:
		if f.leafOf(src) == f.leafOf(dst) {
			return 2
		}
		return 4
	default: // 3
		if f.leafOf(src) == f.leafOf(dst) {
			return 2
		}
		if f.podOf(src) == f.podOf(dst) {
			return 4
		}
		return 6
	}
}

// Route implements Topology. The upward path is selected deterministically
// from the destination ID (d-mod routing), which spreads traffic across
// uplinks the way static destination-based routing tables do.
func (f *FatTree) Route(src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(f, src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	d := f.d
	ls, ld := src/d, dst/d
	if f.stages == 1 || ls == ld {
		return append(buf, f.termLink[src], f.termLink[dst]), nil
	}
	// Every lower switch reaches d/2 tops by two parallel links each.
	ups, par := d/2, (src+dst)&1
	if f.stages == 2 {
		top := dst % ups // destination-modular top choice
		return append(buf,
			f.termLink[src],
			int(f.midTop[(ls*ups+top)*2+par]),
			int(f.midTop[(ld*ups+top)*2+par]),
			f.termLink[dst]), nil
	}
	j := dst % d // mid index chosen by destination
	ps, pd := ls/d, ld/d
	if ps == pd {
		return append(buf,
			f.termLink[src],
			int(f.leafMid[ls*d+j]),
			int(f.leafMid[ld*d+j]),
			f.termLink[dst]), nil
	}
	top := ld % ups          // top within group j
	ms, md := ps*d+j, pd*d+j // mids (pod, j)
	return append(buf,
		f.termLink[src],
		int(f.leafMid[ls*d+j]),
		int(f.midTop[(ms*ups+top)*2+par]),
		int(f.midTop[(md*ups+top)*2+par]),
		int(f.leafMid[ld*d+j]),
		f.termLink[dst]), nil
}

var _ Topology = (*FatTree)(nil)
