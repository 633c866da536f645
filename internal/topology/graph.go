package topology

import "fmt"

// Graph is a plain adjacency-list view of a topology, used as the reference
// implementation for shortest paths: the analytic HopCount of every
// topology is validated against BFS distances on this graph.
type Graph struct {
	n   int
	adj [][]int
}

// NewGraph builds an adjacency list over n vertices from a link list.
func NewGraph(n int, links []Link) (*Graph, error) {
	g := &Graph{n: n, adj: make([][]int, n)}
	for i, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return nil, fmt.Errorf("topology: link %d (%d-%d) out of range [0,%d)", i, l.A, l.B, n)
		}
		if l.A == l.B {
			return nil, fmt.Errorf("topology: link %d is a self loop at %d", i, l.A)
		}
		g.adj[l.A] = append(g.adj[l.A], l.B)
		g.adj[l.B] = append(g.adj[l.B], l.A)
	}
	return g, nil
}

// GraphOf builds the reference graph of a topology.
func GraphOf(t Topology) (*Graph, error) {
	return NewGraph(t.NumVertices(), t.Links())
}

// BFSFrom returns the distance (in hops) from src to every vertex;
// unreachable vertices get -1.
func (g *Graph) BFSFrom(src int) ([]int, error) {
	if src < 0 || src >= g.n {
		return nil, fmt.Errorf("topology: bfs source %d out of range [0,%d)", src, g.n)
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, nil
}
