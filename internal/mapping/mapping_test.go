package mapping

import (
	"fmt"
	"reflect"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, err := New([]int{0}, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New([]int{4}, 4); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := New([]int{-1}, 4); err == nil {
		t.Fatal("negative node accepted")
	}
	m, err := New([]int{2, 2, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks() != 3 || m.Nodes() != 4 || m.UsedNodes() != 2 {
		t.Fatalf("ranks=%d nodes=%d used=%d", m.Ranks(), m.Nodes(), m.UsedNodes())
	}
}

func TestNewCopiesTable(t *testing.T) {
	table := []int{0, 1}
	m, err := New(table, 2)
	if err != nil {
		t.Fatal(err)
	}
	table[0] = 1
	if n, _ := m.NodeOf(0); n != 0 {
		t.Fatal("mapping aliases caller slice")
	}
	out := m.Table()
	out[1] = 0
	if n, _ := m.NodeOf(1); n != 1 {
		t.Fatal("Table() aliases internal slice")
	}
}

func TestConsecutive(t *testing.T) {
	m, err := Consecutive(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if n, _ := m.NodeOf(r); n != r {
			t.Fatalf("NodeOf(%d) = %d", r, n)
		}
	}
	if m.UsedNodes() != 4 {
		t.Fatalf("UsedNodes = %d", m.UsedNodes())
	}
	if _, err := Consecutive(9, 8); err == nil {
		t.Fatal("too many ranks accepted")
	}
	if _, err := Consecutive(0, 8); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := m.NodeOf(4); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := m.NodeOf(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestBlocked(t *testing.T) {
	m, err := Blocked(10, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for r, w := range want {
		if n, _ := m.NodeOf(r); n != w {
			t.Fatalf("NodeOf(%d) = %d, want %d", r, n, w)
		}
	}
	if _, err := Blocked(10, 2, 4); err == nil {
		t.Fatal("insufficient nodes accepted")
	}
	if _, err := Blocked(10, 3, 0); err == nil {
		t.Fatal("zero per-node accepted")
	}
	if _, err := Blocked(0, 3, 2); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestBlockedOneRankPerNodeEqualsConsecutive(t *testing.T) {
	b, err := Blocked(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Consecutive(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		bn, _ := b.NodeOf(r)
		cn, _ := c.NodeOf(r)
		if bn != cn {
			t.Fatalf("rank %d: blocked %d vs consecutive %d", r, bn, cn)
		}
	}
}

func TestRandomIsPermutationAndDeterministic(t *testing.T) {
	m1, err := Random(8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Random(8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < 8; r++ {
		n1, _ := m1.NodeOf(r)
		n2, _ := m2.NodeOf(r)
		if n1 != n2 {
			t.Fatal("same seed produced different mappings")
		}
		if seen[n1] {
			t.Fatalf("node %d used twice", n1)
		}
		seen[n1] = true
	}
	m3, err := Random(8, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for r := 0; r < 8; r++ {
		n1, _ := m1.NodeOf(r)
		n3, _ := m3.NodeOf(r)
		if n1 != n3 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical mapping (unlikely)")
	}
	if _, err := Random(13, 12, 1); err == nil {
		t.Fatal("too many ranks accepted")
	}
	if _, err := Random(0, 12, 1); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

// ringMatrix builds a ring communication pattern: rank i talks heavily to
// (i+1) mod n.
func ringMatrix(t *testing.T, n int) *comm.Matrix {
	t.Helper()
	m, err := comm.NewMatrix(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.Add(i, (i+1)%n, 1000); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func weightedHops(t *testing.T, m *comm.Matrix, topo topology.Topology, mp *Mapping) float64 {
	t.Helper()
	var total float64
	var failed bool
	m.Each(func(k comm.Key, e comm.Entry) {
		ns, err1 := mp.NodeOf(k.Src)
		nd, err2 := mp.NodeOf(k.Dst)
		if err1 != nil || err2 != nil {
			failed = true
			return
		}
		total += float64(e.Bytes) * float64(topo.HopCount(ns, nd))
	})
	if failed {
		t.Fatal("mapping lookup failed")
	}
	return total
}

func TestGreedyBeatsRandomOnRing(t *testing.T) {
	cm := ringMatrix(t, 27)
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Random(27, 27, 99)
	if err != nil {
		t.Fatal(err)
	}
	gh := weightedHops(t, cm, topo, greedy)
	rh := weightedHops(t, cm, topo, random)
	if gh >= rh {
		t.Fatalf("greedy %v not better than random %v", gh, rh)
	}
}

func TestGreedyPlacesAllRanksOnDistinctNodes(t *testing.T) {
	cm := ringMatrix(t, 16)
	topo, err := topology.NewFatTree(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	if g.Ranks() != 16 {
		t.Fatalf("ranks = %d", g.Ranks())
	}
	seen := map[int]bool{}
	for r := 0; r < 16; r++ {
		n, err := g.NodeOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatalf("node %d reused", n)
		}
		seen[n] = true
	}
}

func TestGreedyHandlesSilentRanks(t *testing.T) {
	// Only two ranks talk; the rest are isolated but must still be placed.
	cm, err := comm.NewMatrix(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Add(3, 7, 100); err != nil {
		t.Fatal(err)
	}
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	n3, _ := g.NodeOf(3)
	n7, _ := g.NodeOf(7)
	if topo.HopCount(n3, n7) != 1 {
		t.Fatalf("communicating pair placed %d hops apart", topo.HopCount(n3, n7))
	}
}

func TestGreedyRejectsTooSmallTopology(t *testing.T) {
	cm := ringMatrix(t, 100)
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Greedy(cm, topo); err == nil {
		t.Fatal("oversubscribed greedy accepted")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	cm := ringMatrix(t, 12)
	topo, err := topology.NewTorus(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		n1, _ := g1.NodeOf(r)
		n2, _ := g2.NodeOf(r)
		if n1 != n2 {
			t.Fatal("greedy not deterministic")
		}
	}
}

// referenceGreedy is Greedy as it stood on its map-based adjacency,
// kept verbatim as the oracle for the CSR rewrite.
func referenceGreedy(m *comm.Matrix, topo topology.Topology) (*Mapping, error) {
	ranks := m.Ranks()
	if topo.Nodes() < ranks {
		return nil, fmt.Errorf("mapping: topology %s has %d nodes for %d ranks", topo.Name(), topo.Nodes(), ranks)
	}
	// Symmetric traffic between rank pairs.
	traffic := make(map[comm.Key]float64, m.Pairs())
	m.Each(func(k comm.Key, e comm.Entry) {
		a, b := k.Src, k.Dst
		if a > b {
			a, b = b, a
		}
		traffic[comm.Key{Src: a, Dst: b}] += float64(e.Bytes)
	})
	neighbors := make([][]int, ranks)
	weight := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		return traffic[comm.Key{Src: a, Dst: b}]
	}
	for k := range traffic {
		neighbors[k.Src] = append(neighbors[k.Src], k.Dst)
		neighbors[k.Dst] = append(neighbors[k.Dst], k.Src)
	}

	nodeOf := make([]int, ranks)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	nodeFree := make([]bool, topo.Nodes())
	for i := range nodeFree {
		nodeFree[i] = true
	}
	placed := make([]bool, ranks)
	attach := make([]float64, ranks) // traffic to already-placed ranks

	// Start from the rank with the largest total traffic.
	totals := make([]float64, ranks)
	for k, v := range traffic {
		totals[k.Src] += v
		totals[k.Dst] += v
	}
	first := 0
	for r := 1; r < ranks; r++ {
		if totals[r] > totals[first] {
			first = r
		}
	}

	place := func(rank, node int) {
		nodeOf[rank] = node
		nodeFree[node] = false
		placed[rank] = true
		for _, nb := range neighbors[rank] {
			if !placed[nb] {
				attach[nb] += weight(rank, nb)
			}
		}
	}
	place(first, 0)

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
		// Best free node: minimize weighted hops to placed partners.
		bestNode, bestCost := -1, 0.0
		hasPartner := false
		for _, nb := range neighbors[next] {
			if placed[nb] {
				hasPartner = true
				break
			}
		}
		for node := 0; node < topo.Nodes(); node++ {
			if !nodeFree[node] {
				continue
			}
			if !hasPartner {
				bestNode = node // first free node
				break
			}
			cost := 0.0
			for _, nb := range neighbors[next] {
				if placed[nb] {
					cost += weight(next, nb) * float64(topo.HopCount(node, nodeOf[nb]))
				}
			}
			if bestNode == -1 || cost < bestCost {
				bestNode, bestCost = node, cost
			}
		}
		place(next, bestNode)
	}
	return &Mapping{nodeOf: nodeOf, nodes: topo.Nodes()}, nil
}

// referenceRefine is Refine as it stood on its own per-rank edge lists,
// kept verbatim as the oracle for the shared adjacency builder.
func referenceRefine(m *comm.Matrix, topo topology.Topology, initial *Mapping, maxPasses int) (*Mapping, error) {
	ranks := m.Ranks()
	if initial.Ranks() < ranks {
		return nil, fmt.Errorf("mapping: initial mapping covers %d ranks, matrix has %d", initial.Ranks(), ranks)
	}
	if maxPasses < 1 {
		maxPasses = 1
	}
	nodeOf := initial.Table()[:ranks]
	// Verify one-rank-per-node (swaps assume it).
	seen := make(map[int]bool, ranks)
	for r, n := range nodeOf {
		if seen[n] {
			return nil, fmt.Errorf("mapping: node %d hosts multiple ranks; Refine needs one rank per node", n)
		}
		seen[n] = true
		_ = r
	}

	// Symmetric adjacency with weights for delta evaluation.
	type edge struct {
		peer int
		w    float64
	}
	adj := make([][]edge, ranks)
	m.Each(func(k comm.Key, e comm.Entry) {
		adj[k.Src] = append(adj[k.Src], edge{peer: k.Dst, w: float64(e.Bytes)})
		adj[k.Dst] = append(adj[k.Dst], edge{peer: k.Src, w: float64(e.Bytes)})
	})

	// cost of rank r sitting on node n, excluding any edge to `exclude`.
	costAt := func(r, n, exclude int) float64 {
		var c float64
		for _, e := range adj[r] {
			if e.peer == exclude {
				continue
			}
			c += e.w * float64(topo.HopCount(n, nodeOf[e.peer]))
		}
		return c
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for r1 := 0; r1 < ranks; r1++ {
			if len(adj[r1]) == 0 {
				continue
			}
			for r2 := r1 + 1; r2 < ranks; r2++ {
				n1, n2 := nodeOf[r1], nodeOf[r2]
				before := costAt(r1, n1, r2) + costAt(r2, n2, r1)
				after := costAt(r1, n2, r2) + costAt(r2, n1, r1)
				// The mutual r1<->r2 term is symmetric in (n1, n2) and
				// cancels from the delta.
				if after < before-1e-9 {
					nodeOf[r1], nodeOf[r2] = n2, n1
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return New(nodeOf, initial.Nodes())
}

// familyTopologies builds one sized topology of every design family
// for the given rank count.
func familyTopologies(t testing.TB, ranks int) []topology.Topology {
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

// wireMatrix accumulates a generated workload's wire traffic.
func wireMatrix(t testing.TB, app string, ranks int) *comm.Matrix {
	t.Helper()
	a, err := workloads.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.Generate(ranks)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return acc.Wire
}

// Greedy's CSR adjacency, partner prefetch and early cost cut-off must
// not move a single rank: byte weights are integers, so every cost sum
// is exact in any order, and the cut-off only skips nodes that could
// not win. Covered: several apps on every design family, a rank with no
// traffic at all, and a matrix whose candidate nodes tie on cost.
func TestGreedyMatchesReference(t *testing.T) {
	type cell struct {
		name string
		m    *comm.Matrix
	}
	var cells []cell
	for _, c := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"MiniFE", 144}, {"Crystal Router", 100}, {"AMR_Miniapp", 64}} {
		cells = append(cells, cell{fmt.Sprintf("%s/%d", c.app, c.ranks), wireMatrix(t, c.app, c.ranks)})
	}
	// Rank 5 is silent; ranks 0-1 and 2-3 exchange equal volumes both
	// ways (merged weights), and rank 4 talks to both pairs equally, so
	// several free nodes tie on cost.
	silent, err := comm.NewMatrix(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][3]int{{0, 1, 100}, {1, 0, 100}, {2, 3, 100}, {3, 2, 100}, {4, 0, 50}, {4, 2, 50}, {6, 7, 0}, {7, 6, 1}} {
		if err := silent.Add(e[0], e[1], uint64(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	cells = append(cells, cell{"silent+ties/8", silent})

	for _, c := range cells {
		for _, topo := range familyTopologies(t, c.m.Ranks()) {
			want, err := referenceGreedy(c.m, topo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Greedy(c.m, topo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table(), want.Table()) || got.Nodes() != want.Nodes() {
				t.Errorf("%s on %s: Greedy diverged from the reference\n got %v\nwant %v",
					c.name, topo.Name(), got.Table(), want.Table())
			}
		}
	}
}

// Refine on the shared merged adjacency must swap exactly as it did on
// per-direction edge lists.
func TestRefineMatchesReference(t *testing.T) {
	for _, c := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"Crystal Router", 100}} {
		m := wireMatrix(t, c.app, c.ranks)
		for _, topo := range familyTopologies(t, c.ranks)[:3] {
			initial, err := Random(c.ranks, topo.Nodes(), 7)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceRefine(m, topo, initial, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Refine(m, topo, initial, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table(), want.Table()) {
				t.Errorf("%s/%d on %s: Refine diverged from the reference", c.app, c.ranks, topo.Name())
			}
		}
	}
}
