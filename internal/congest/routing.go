package congest

import (
	"fmt"

	"netloc/internal/topology"
)

// router computes one message's link path. Implementations must be
// deterministic: the same (src, dst, seq, now) with the same simulator
// state always yields the same path.
type router interface {
	// route appends the link path for message seq from node src to
	// node dst, decided at simulation time now, to buf[:0] and returns
	// it. detour reports a non-minimal (Valiant) path. The result
	// shares storage only with buf, never with the router's own
	// buffers, so it stays intact until the caller reuses buf.
	route(src, dst, seq int, now float64, buf []int) (path []int, detour bool, err error)
}

// linkLoad is the congestion view adaptive routing consults: the time a
// head arriving at the link now would wait before service.
type linkLoad interface {
	backlog(link int, now float64) float64
}

// newRouter builds the policy's router for one simulation run.
func newRouter(policy string, topo topology.Topology, seed uint64, loads linkLoad, hopLat float64) (router, error) {
	switch policy {
	case PolicyMinimal:
		return &minimalRouter{topo: topo}, nil
	case PolicyECMP:
		return newECMPRouter(topo, seed)
	case PolicyValiant:
		return newValiantRouter(topo, seed)
	case PolicyUGAL:
		val, err := newValiantRouter(topo, seed)
		if err != nil {
			return nil, err
		}
		return &ugalRouter{
			min:    &minimalRouter{topo: topo},
			val:    val,
			loads:  loads,
			hopLat: hopLat,
		}, nil
	}
	return nil, fmt.Errorf("congest: unknown policy %q (known: %v)", policy, Policies())
}

// minimalRouter replays the topology's own deterministic shortest path.
type minimalRouter struct {
	topo topology.Topology
}

func (r *minimalRouter) route(src, dst, seq int, now float64, buf []int) ([]int, bool, error) {
	path, err := r.topo.Route(src, dst, buf)
	return path, false, err
}

// mix64 is the splitmix-style finalizer also used by the Valiant pivot
// hash: a cheap, well-distributed, seedable permutation of 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ecmpRouter spreads flows over the equal-cost shortest paths of the
// topology's reference graph: at every vertex, the next hop among the
// distance-decreasing neighbors is picked by a per-(flow, vertex) hash —
// the stateless, deterministic spreading of flow-hashing switches. BFS
// distance tables toward each destination are built lazily and reused
// across the run.
type ecmpRouter struct {
	graph *topology.Graph
	seed  uint64
	// adjacency with link identities, in link order (BFS ties and
	// candidate order stay deterministic).
	adj  [][]edge
	dist map[int][]int // dst vertex -> distance table
}

type edge struct {
	to   int
	link int
}

func newECMPRouter(topo topology.Topology, seed uint64) (*ecmpRouter, error) {
	g, err := topology.GraphOf(topo)
	if err != nil {
		return nil, err
	}
	adj := make([][]edge, topo.NumVertices())
	for li, l := range topo.Links() {
		adj[l.A] = append(adj[l.A], edge{to: l.B, link: li})
		adj[l.B] = append(adj[l.B], edge{to: l.A, link: li})
	}
	return &ecmpRouter{graph: g, seed: seed, adj: adj, dist: make(map[int][]int)}, nil
}

func (r *ecmpRouter) distTo(dst int) ([]int, error) {
	if d, ok := r.dist[dst]; ok {
		return d, nil
	}
	d, err := r.graph.BFSFrom(dst)
	if err != nil {
		return nil, err
	}
	r.dist[dst] = d
	return d, nil
}

func (r *ecmpRouter) route(src, dst, seq int, now float64, buf []int) ([]int, bool, error) {
	dist, err := r.distTo(dst)
	if err != nil {
		return nil, false, err
	}
	if dist[src] < 0 {
		return nil, false, fmt.Errorf("congest: no path %d->%d", src, dst)
	}
	// One hash per flow: every message of a (src, dst) pair follows the
	// same path, load spreads across flows — classic ECMP, as opposed
	// to UGAL's per-message adaptivity.
	flow := mix64(uint64(src)<<32 ^ uint64(dst) ^ r.seed)
	path := buf[:0]
	cur := src
	for cur != dst {
		want := dist[cur] - 1
		n := 0
		for _, e := range r.adj[cur] {
			if dist[e.to] == want {
				n++
			}
		}
		if n == 0 {
			return nil, false, fmt.Errorf("congest: BFS dead end at vertex %d toward %d", cur, dst)
		}
		pick := int(mix64(flow^uint64(cur)) % uint64(n))
		for _, e := range r.adj[cur] {
			if dist[e.to] != want {
				continue
			}
			if pick == 0 {
				path = append(path, e.link)
				cur = e.to
				break
			}
			pick--
		}
	}
	return path, false, nil
}

// valiantRouter routes via a deterministic pseudo-random intermediate.
// Dragonflies reuse topology/valiant.go's pivot-group machinery (the
// canonical Valiant scheme for that family); every other topology
// detours through a pivot node: minimal to the pivot, minimal onward.
type valiantRouter struct {
	topo    topology.Topology
	via     topology.Topology // dragonfly: the *topology.Valiant wrapper
	minimal topology.Topology // shortest-path reference for detour detection
	nodes   int
	seed    uint64
	// leg1, leg2 are the generic detour's scratch buffers.
	leg1, leg2 []int
}

func newValiantRouter(topo topology.Topology, seed uint64) (*valiantRouter, error) {
	r := &valiantRouter{topo: topo, minimal: topo, nodes: topo.Nodes(), seed: seed}
	switch d := topo.(type) {
	case *topology.Valiant:
		r.via = d
		r.minimal = d.Dragonfly
	case *topology.Dragonfly:
		v, err := topology.NewValiant(d, seed)
		if err != nil {
			return nil, err
		}
		r.via = v
	}
	return r, nil
}

// pivot picks the intermediate node for a pair: a deterministic
// pseudo-random node different from both endpoints.
func (r *valiantRouter) pivot(src, dst int) int {
	p := int(mix64(uint64(src)*0x9E3779B97F4A7C15^uint64(dst)+r.seed) % uint64(r.nodes))
	for p == src || p == dst {
		p = (p + 1) % r.nodes
	}
	return p
}

func (r *valiantRouter) route(src, dst, seq int, now float64, buf []int) ([]int, bool, error) {
	if r.via != nil {
		path, err := r.via.Route(src, dst, buf)
		// The dragonfly wrapper detours only inter-group traffic; a
		// longer-than-minimal path is the observable detour signal.
		return path, err == nil && len(path) > r.minimal.HopCount(src, dst), err
	}
	if r.nodes < 3 {
		path, err := r.topo.Route(src, dst, buf)
		return path, false, err
	}
	p := r.pivot(src, dst)
	leg1, err := r.topo.Route(src, p, r.leg1)
	if err != nil {
		return nil, false, err
	}
	leg2, err := r.topo.Route(p, dst, r.leg2)
	if err != nil {
		return nil, false, err
	}
	r.leg1, r.leg2 = leg1, leg2
	// On indirect topologies both legs touch the pivot over its
	// terminal link; dropping the repeated pair turns around at the
	// pivot's switch instead of re-injecting through the node.
	if len(leg1) > 0 && len(leg2) > 0 && leg1[len(leg1)-1] == leg2[0] {
		leg1 = leg1[:len(leg1)-1]
		leg2 = leg2[1:]
	}
	return append(append(buf[:0], leg1...), leg2...), true, nil
}

// ugalRouter is the UGAL-style adaptive choice: per message, estimate
// the delivery time of the minimal and the Valiant path from the queue
// backlog along each at decision time, and take the cheaper one. The
// detour flag reports the Valiant alternative was taken.
type ugalRouter struct {
	min    router
	val    router
	loads  linkLoad
	hopLat float64
	// alt holds the Valiant candidate between calls.
	alt []int
}

func (r *ugalRouter) cost(path []int, now float64) float64 {
	c := float64(len(path)) * r.hopLat
	for _, li := range path {
		c += r.loads.backlog(li, now)
	}
	return c
}

func (r *ugalRouter) route(src, dst, seq int, now float64, buf []int) ([]int, bool, error) {
	minPath, _, err := r.min.route(src, dst, seq, now, buf)
	if err != nil {
		return nil, false, err
	}
	valPath, _, err := r.val.route(src, dst, seq, now, r.alt)
	if err != nil {
		return nil, false, err
	}
	r.alt = valPath
	// The Valiant alternative can share the minimal path's length yet use
	// different links, so it stays a candidate whenever the paths differ;
	// ties go to minimal (hardware UGAL's bias).
	if samePath(minPath, valPath) || r.cost(minPath, now) <= r.cost(valPath, now) {
		return minPath, false, nil
	}
	// Copy the detour over the minimal path in the caller's buffer:
	// handing out r.alt would let the next call overwrite it.
	return append(minPath[:0], valPath...), true, nil
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
