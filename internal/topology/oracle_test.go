package topology

import "fmt"

// Test oracles over a topology's routing and its reference graph.

// Diameter returns the largest hop count between any pair of compute
// nodes under the topology's routing (for minimal routing this is the
// network diameter over endpoints). O(Nodes²).
func Diameter(t Topology) int {
	max := 0
	// Ordered pairs: non-minimal schemes (e.g. Valiant) need not be
	// symmetric in src and dst.
	for s := 0; s < t.Nodes(); s++ {
		for d := 0; d < t.Nodes(); d++ {
			if s == d {
				continue
			}
			if h := t.HopCount(s, d); h > max {
				max = h
			}
		}
	}
	return max
}

// Connected reports whether every vertex is reachable from vertex 0.
func (g *Graph) Connected() (bool, error) {
	if g.n == 0 {
		return true, nil
	}
	dist, err := g.BFSFrom(0)
	if err != nil {
		return false, err
	}
	for _, d := range dist {
		if d == -1 {
			return false, nil
		}
	}
	return true, nil
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) (int, error) {
	if v < 0 || v >= g.n {
		return 0, fmt.Errorf("topology: vertex %d out of range [0,%d)", v, g.n)
	}
	return len(g.adj[v]), nil
}
