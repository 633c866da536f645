package topology

import "fmt"

// Torus is a 3D torus: nodes arranged on an X×Y×Z grid with wrap-around
// links in every dimension. Switches are integrated into the nodes (direct
// topology), so no terminal hop is needed: the hop count between two nodes
// is the sum of the per-dimension ring distances. Routing is
// dimension-ordered (X, then Y, then Z), taking the shorter ring direction
// in each dimension; this is shortest-path.
//
// With wrap disabled (NewMesh) the same structure models a 3D mesh, the
// ablation case for how much of the torus results the wrap-around links
// are responsible for.
type Torus struct {
	x, y, z int
	wrap    bool
	links   []Link
	classes []LinkClass
	// dirLink[node*6+d] is the link index leaving node in direction d
	// (0 +x, 1 -x, 2 +y, 3 -y, 4 +z, 5 -z); -1 where the dimension has
	// size one. Precomputed so routing needs no map lookups.
	dirLink []int
	// coordTab[node*3+d] is the node's coordinate in dimension d,
	// precomputed so the per-pair hop/route loops skip the div/mod
	// decomposition.
	coordTab []int32
}

// NewTorus constructs an X×Y×Z torus. All dimensions must be positive.
func NewTorus(x, y, z int) (*Torus, error) {
	return newGrid(x, y, z, true)
}

// NewMesh constructs an X×Y×Z mesh: the torus structure without the
// wrap-around links.
func NewMesh(x, y, z int) (*Torus, error) {
	return newGrid(x, y, z, false)
}

func newGrid(x, y, z int, wrap bool) (*Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, fmt.Errorf("topology: invalid torus dimensions (%d,%d,%d)", x, y, z)
	}
	t := &Torus{x: x, y: y, z: z, wrap: wrap}
	n := x * y * z
	t.dirLink = make([]int, n*6)
	for i := range t.dirLink {
		t.dirLink[i] = -1
	}
	t.coordTab = make([]int32, n*3)
	for v := 0; v < n; v++ {
		t.coordTab[v*3] = int32(v % x)
		t.coordTab[v*3+1] = int32((v / x) % y)
		t.coordTab[v*3+2] = int32(v / (x * y))
	}
	// One +direction link per node per dimension. A dimension of size 2
	// has a single link per node pair (the "wrap" coincides with the
	// direct link); size 1 has none.
	for v := 0; v < n; v++ {
		cx, cy, cz := t.coords(v)
		if x > 1 && (cx+1 < x || (wrap && x > 2)) {
			t.addLink(v, t.id((cx+1)%x, cy, cz), 0, t.wrapSize(x))
		}
		if y > 1 && (cy+1 < y || (wrap && y > 2)) {
			t.addLink(v, t.id(cx, (cy+1)%y, cz), 2, t.wrapSize(y))
		}
		if z > 1 && (cz+1 < z || (wrap && z > 2)) {
			t.addLink(v, t.id(cx, cy, (cz+1)%z), 4, t.wrapSize(z))
		}
	}
	return t, nil
}

// wrapSize returns the ring size addLink should treat a dimension as: in
// mesh mode wrap semantics never apply, so any value above 2 suffices.
func (t *Torus) wrapSize(size int) int {
	if !t.wrap && size == 2 {
		// A 2-node mesh dimension still has one link serving both
		// directions of both nodes.
		return 2
	}
	if !t.wrap {
		return size + 1 // suppress the size==2 double-direction rule
	}
	return size
}

// addLink records the link a→b in the positive direction of the dimension
// whose positive direction index is dirPlus, and fills the direction
// tables for both endpoints (in a size-2 dimension the single link serves
// both directions of both nodes).
func (t *Torus) addLink(a, b, dirPlus, size int) {
	li := len(t.links)
	t.links = append(t.links, Link{A: a, B: b})
	t.classes = append(t.classes, ClassLocal)
	t.dirLink[a*6+dirPlus] = li
	t.dirLink[b*6+dirPlus+1] = li
	if size == 2 {
		t.dirLink[a*6+dirPlus+1] = li
		t.dirLink[b*6+dirPlus] = li
	}
}

// Dims returns the torus dimensions.
func (t *Torus) Dims() (x, y, z int) { return t.x, t.y, t.z }

// Name implements Topology.
func (t *Torus) Name() string { return fmt.Sprintf("%s(%d,%d,%d)", t.Kind(), t.x, t.y, t.z) }

// Kind implements Topology.
func (t *Torus) Kind() string {
	if !t.wrap {
		return "mesh"
	}
	return "torus"
}

// Nodes implements Topology.
func (t *Torus) Nodes() int { return t.x * t.y * t.z }

// NumVertices implements Topology. Switches are integrated, so the vertex
// space equals the node space.
func (t *Torus) NumVertices() int { return t.Nodes() }

// Links implements Topology.
func (t *Torus) Links() []Link { return t.links }

// LinkClasses implements Topology.
func (t *Torus) LinkClasses() []LinkClass { return t.classes }

func (t *Torus) id(cx, cy, cz int) int { return (cz*t.y+cy)*t.x + cx }

func (t *Torus) coords(n int) (cx, cy, cz int) {
	return int(t.coordTab[n*3]), int(t.coordTab[n*3+1]), int(t.coordTab[n*3+2])
}

// ringDist returns the shortest ring distance between coordinates a and b
// in a dimension of the given size.
func ringDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := size - d; wrap < d {
		return wrap
	}
	return d
}

// HopCount implements Topology.
func (t *Torus) HopCount(src, dst int) int {
	sx, sy, sz := t.coords(src)
	dx, dy, dz := t.coords(dst)
	return t.ringLen(sx, dx, t.x) + t.ringLen(sy, dy, t.y) + t.ringLen(sz, dz, t.z)
}

// ringLen is the length of a leg between coordinates a and b of a
// dimension of the given size: the ring distance, or the straight one on
// a mesh.
func (t *Torus) ringLen(a, b, size int) int {
	if !t.wrap {
		return absDiff(a, b)
	}
	return ringDist(a, b, size)
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Route implements Topology. Dimension-ordered: X, then Y, then Z, each
// leg walked by appendLeg.
func (t *Torus) Route(src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(t, src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	var sc, dc [3]int
	sc[0], sc[1], sc[2] = t.coords(src)
	dc[0], dc[1], dc[2] = t.coords(dst)
	strides := [3]int{1, t.x, t.x * t.y}
	cur := src
	for dim := 0; dim < 3; dim++ {
		if sc[dim] == dc[dim] {
			continue
		}
		var err error
		if buf, err = t.appendLeg(buf, cur, sc[dim], dc[dim], dim); err != nil {
			return nil, err
		}
		cur += (dc[dim] - sc[dim]) * strides[dim]
	}
	return buf, nil
}

// appendLeg appends the links of one dimension-ordered leg: along
// dimension dim from node cur, whose coordinate there is from, to
// coordinate to. Within one dimension the shorter ring way never changes
// as the walk advances, so the direction (positive on ties, direct on a
// mesh) is decided once and the walk is plain stride arithmetic on the
// node id.
func (t *Torus) appendLeg(buf []int, cur, from, to, dim int) ([]int, error) {
	size := [3]int{t.x, t.y, t.z}[dim]
	stride := [3]int{1, t.x, t.x * t.y}[dim]
	step, dir := 1, dim*2
	n := to - from
	if t.wrap {
		fwd := (n + size) % size
		if fwd <= size-fwd {
			n = fwd
		} else {
			n = size - fwd
			step, dir = -1, dim*2+1
		}
	} else if n < 0 {
		n, step, dir = -n, -1, dim*2+1
	}
	for i := 0; i < n; i++ {
		li := t.dirLink[cur*6+dir]
		if li < 0 {
			return nil, fmt.Errorf("topology: torus missing link at node %d dir %d", cur, dir)
		}
		buf = append(buf, li)
		next := from + step
		if next == size {
			next = 0
		} else if next < 0 {
			next = size - 1
		}
		cur += (next - from) * stride
		from = next
	}
	return buf, nil
}

var _ Topology = (*Torus)(nil)
