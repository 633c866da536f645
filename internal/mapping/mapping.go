// Package mapping assigns MPI ranks to physical compute nodes.
//
// The study uses a simple consecutive mapping (rank i on node i, or blocks
// of c consecutive ranks per node in the multi-core analysis). Its
// discussion argues that "a smart mapping could dramatically reduce network
// traffic" by co-locating heavily communicating ranks; the Greedy mapper
// implements that idea as an extension and is exercised by the ablation
// benchmarks.
package mapping

import (
	"fmt"
	"math/rand"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

// Mapping maps ranks 0..Ranks()-1 onto nodes of a topology. Multiple ranks
// may share a node (multi-core configurations).
type Mapping struct {
	nodeOf []int
	nodes  int
}

// New builds a mapping from an explicit rank→node table.
func New(nodeOf []int, nodes int) (*Mapping, error) {
	if len(nodeOf) == 0 {
		return nil, fmt.Errorf("mapping: empty rank table")
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("mapping: non-positive node count %d", nodes)
	}
	for r, n := range nodeOf {
		if n < 0 || n >= nodes {
			return nil, fmt.Errorf("mapping: rank %d mapped to node %d outside [0,%d)", r, n, nodes)
		}
	}
	return &Mapping{nodeOf: append([]int(nil), nodeOf...), nodes: nodes}, nil
}

// Consecutive maps rank i to node i. Requires nodes >= ranks.
func Consecutive(ranks, nodes int) (*Mapping, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mapping: non-positive rank count %d", ranks)
	}
	if nodes < ranks {
		return nil, fmt.Errorf("mapping: %d nodes cannot host %d ranks one-per-node", nodes, ranks)
	}
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r
	}
	return &Mapping{nodeOf: nodeOf, nodes: nodes}, nil
}

// Blocked maps ranksPerNode consecutive ranks onto each node (the paper's
// multi-core mapping: "the number of ranks is consecutively mapped to one
// node, according to the number of cores").
func Blocked(ranks, nodes, ranksPerNode int) (*Mapping, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mapping: non-positive rank count %d", ranks)
	}
	if ranksPerNode <= 0 {
		return nil, fmt.Errorf("mapping: non-positive ranks-per-node %d", ranksPerNode)
	}
	needed := (ranks + ranksPerNode - 1) / ranksPerNode
	if nodes < needed {
		return nil, fmt.Errorf("mapping: %d nodes cannot host %d ranks at %d per node", nodes, ranks, ranksPerNode)
	}
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r / ranksPerNode
	}
	return &Mapping{nodeOf: nodeOf, nodes: nodes}, nil
}

// Random maps ranks to a seeded random permutation of distinct nodes.
func Random(ranks, nodes int, seed int64) (*Mapping, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mapping: non-positive rank count %d", ranks)
	}
	if nodes < ranks {
		return nil, fmt.Errorf("mapping: %d nodes cannot host %d ranks one-per-node", nodes, ranks)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nodes)[:ranks]
	return &Mapping{nodeOf: perm, nodes: nodes}, nil
}

// Ranks returns the number of mapped ranks.
func (m *Mapping) Ranks() int { return len(m.nodeOf) }

// Nodes returns the size of the node space.
func (m *Mapping) Nodes() int { return m.nodes }

// NodeOf returns the node hosting a rank.
func (m *Mapping) NodeOf(rank int) (int, error) {
	if rank < 0 || rank >= len(m.nodeOf) {
		return 0, fmt.Errorf("mapping: rank %d out of range [0,%d)", rank, len(m.nodeOf))
	}
	return m.nodeOf[rank], nil
}

// Table returns a copy of the rank→node table.
func (m *Mapping) Table() []int { return append([]int(nil), m.nodeOf...) }

// NodeTable returns the rank→node table itself, for read-only hot loops.
// The slice is shared; do not modify.
func (m *Mapping) NodeTable() []int { return m.nodeOf }

// UsedNodes returns the number of distinct nodes hosting at least one rank.
func (m *Mapping) UsedNodes() int {
	seen := make(map[int]struct{}, len(m.nodeOf))
	for _, n := range m.nodeOf {
		seen[n] = struct{}{}
	}
	return len(seen)
}

// adjacency is the symmetric rank graph of a traffic matrix in CSR
// form: rank r's partners are peer[off[r]:off[r+1]], each with the bytes
// the two ranks exchange in both directions. Every recorded pair appears
// once per endpoint, zero-byte pairs included. Greedy and Refine share
// it.
type adjacency struct {
	off    []int32
	peer   []int32
	weight []float64
}

// newAdjacency builds the exact-size adjacency in two passes over the
// matrix: one counts each rank's distinct partners, one fills them. A
// pair recorded in both directions is merged when its lower rank is the
// source.
func newAdjacency(m *comm.Matrix) adjacency {
	ranks := m.Ranks()
	// merged reports whether a directed entry is folded into its reverse.
	merged := func(k comm.Key) bool { return k.Src > k.Dst && m.Lookup(k.Dst, k.Src).Messages != 0 }
	off := make([]int32, ranks+1)
	m.Each(func(k comm.Key, _ comm.Entry) {
		if !merged(k) {
			off[k.Src+1]++
			off[k.Dst+1]++
		}
	})
	for r := 0; r < ranks; r++ {
		off[r+1] += off[r]
	}
	a := adjacency{off: off, peer: make([]int32, off[ranks]), weight: make([]float64, off[ranks])}
	fill := append([]int32(nil), off[:ranks]...)
	m.Each(func(k comm.Key, e comm.Entry) {
		if merged(k) {
			return
		}
		w := float64(e.Bytes)
		if k.Src < k.Dst {
			w += float64(m.Lookup(k.Dst, k.Src).Bytes)
		}
		i, j := fill[k.Src], fill[k.Dst]
		a.peer[i], a.weight[i] = int32(k.Dst), w
		a.peer[j], a.weight[j] = int32(k.Src), w
		fill[k.Src]++
		fill[k.Dst]++
	})
	return a
}

// row returns rank r's partners and the bytes exchanged with each.
func (a adjacency) row(r int) ([]int32, []float64) {
	lo, hi := a.off[r], a.off[r+1]
	return a.peer[lo:hi], a.weight[lo:hi]
}

// Greedy builds a communication-aware one-rank-per-node mapping: ranks are
// placed in order of their traffic attachment to already-placed ranks, each
// onto the free node minimizing the volume-weighted hop distance to its
// placed partners. This is the classic greedy topology-mapping heuristic
// the paper's discussion motivates ("assign groups of heavily communicating
// ranks to nearby physical entities").
//
// Byte weights are integers, so every cost sum is exact in any order; a
// node's sum stops as soon as it reaches the best cost so far, which
// cannot change the choice because the terms are non-negative and a tie
// keeps the earlier node.
func Greedy(m *comm.Matrix, topo topology.Topology) (*Mapping, error) {
	ranks := m.Ranks()
	nodes := topo.Nodes()
	if nodes < ranks {
		return nil, fmt.Errorf("mapping: topology %s has %d nodes for %d ranks", topo.Name(), nodes, ranks)
	}
	adj := newAdjacency(m)

	nodeOf := make([]int, ranks)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	nodeFree := make([]bool, nodes)
	for i := range nodeFree {
		nodeFree[i] = true
	}
	placed := make([]bool, ranks)
	attach := make([]float64, ranks) // traffic to already-placed ranks

	// Start from the rank with the largest total traffic.
	first, firstTotal := 0, 0.0
	for r := 0; r < ranks; r++ {
		_, ws := adj.row(r)
		total := 0.0
		for _, w := range ws {
			total += w
		}
		if r == 0 || total > firstTotal {
			first, firstTotal = r, total
		}
	}

	place := func(rank, node int) {
		nodeOf[rank] = node
		nodeFree[node] = false
		placed[rank] = true
		peers, ws := adj.row(rank)
		for i, nb := range peers {
			if !placed[nb] {
				attach[nb] += ws[i]
			}
		}
	}
	place(first, 0)

	// partner is a placed partner of the rank being placed.
	type partner struct {
		node int
		w    float64
	}
	var partners []partner
	for n := 1; n < ranks; n++ {
		// Next rank: strongest attachment; ties and isolated ranks fall
		// back to lowest index for determinism.
		next := -1
		for r := 0; r < ranks; r++ {
			if placed[r] {
				continue
			}
			if next == -1 || attach[r] > attach[next] {
				next = r
			}
		}
		partners = partners[:0]
		peers, ws := adj.row(next)
		for i, nb := range peers {
			if placed[nb] {
				partners = append(partners, partner{node: nodeOf[nb], w: ws[i]})
			}
		}
		// Best free node: minimize weighted hops to placed partners; a
		// rank without any goes to the first free node.
		bestNode, bestCost := -1, 0.0
		for node := 0; node < nodes; node++ {
			if !nodeFree[node] {
				continue
			}
			if len(partners) == 0 {
				bestNode = node
				break
			}
			cost := 0.0
			for _, p := range partners {
				cost += p.w * float64(topo.HopCount(node, p.node))
				if bestNode != -1 && cost >= bestCost {
					break
				}
			}
			if bestNode == -1 || cost < bestCost {
				bestNode, bestCost = node, cost
			}
		}
		place(next, bestNode)
	}
	return &Mapping{nodeOf: nodeOf, nodes: nodes}, nil
}
