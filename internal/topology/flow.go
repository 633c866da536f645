package topology

// FlowTotals are the route-length aggregates of the flows a FlowKernel
// has seen.
type FlowTotals struct {
	// PacketHops is Σ packets·hops (eq. 3).
	PacketHops uint64
	// ByteHops is Σ bytes·hops.
	ByteHops uint64
	// GlobalMsgs counts the messages whose route crosses at least one
	// ClassGlobal link.
	GlobalMsgs uint64
}

// FlowKernel turns inter-node flows into per-link loads. Each family
// with a routing structure worth exploiting gets its own kernel; every
// kernel produces exactly the loads and totals of walking each flow's
// Route and adding its bytes to every link on it.
type FlowKernel interface {
	// Add records bytes, msgs and pkts sent from compute node src to
	// compute node dst. The nodes must be distinct and in range. Kernels
	// aggregate by their routing structure, so visiting sources in
	// ascending node order keeps their scratch flushes to one per
	// source, row or switch.
	Add(src, dst int, bytes, msgs, pkts uint64)
	// Finish flushes pending aggregates onto the link loads and returns
	// the totals, or the first routing error.
	Finish() (FlowTotals, error)
}

// NewFlowKernel returns the flow kernel of t that adds link loads onto
// linkBytes, which must be parallel to t.Links(). Dispatch is by concrete
// type: a wrapper such as *Valiant, whose routes are not those of the
// family it embeds, falls back to the generic per-pair route walk.
func NewFlowKernel(t Topology, linkBytes []uint64) FlowKernel {
	switch tt := t.(type) {
	case *Torus:
		return newTorusKernel(tt, linkBytes)
	case *FatTree:
		return &fatTreeKernel{f: tt, lb: linkBytes}
	case *Dragonfly, *SlimFly, *Jellyfish, *HyperX:
		sr := t.(switchRouter)
		switches, per := sr.switchShape()
		return &switchKernel{
			sr: sr, classes: t.LinkClasses(), term: sr.terminalLinks(), per: uint32(per),
			lb: linkBytes, node: -1, src: -1, slot: make([]int32, switches),
		}
	default:
		return &routeKernel{t: t, classes: t.LinkClasses(), lb: linkBytes}
	}
}

// routeKernel is the generic kernel and the reference the others are
// tested against: it walks every flow's Route.
type routeKernel struct {
	t       Topology
	classes []LinkClass
	lb      []uint64
	buf     []int
	tot     FlowTotals
	err     error
}

func (k *routeKernel) Add(src, dst int, bytes, msgs, pkts uint64) {
	if k.err != nil {
		return
	}
	var err error
	k.buf, err = k.t.Route(src, dst, k.buf)
	if err != nil {
		k.err = err
		return
	}
	crossesGlobal := false
	for _, li := range k.buf {
		k.lb[li] += bytes
		if k.classes[li] == ClassGlobal {
			crossesGlobal = true
		}
	}
	if crossesGlobal {
		k.tot.GlobalMsgs += msgs
	}
	hops := uint64(len(k.buf))
	k.tot.PacketHops += pkts * hops
	k.tot.ByteHops += bytes * hops
}

func (k *routeKernel) Finish() (FlowTotals, error) { return k.tot, k.err }

// torusKernel decomposes each dimension-ordered route into its X, Y and Z
// legs and aggregates flows by (leg start node, target coordinate), so
// every distinct leg is walked once however many flows share it. The X
// leg starts at the source; the Y leg at (dx, sy, sz), on the source's
// row; the Z leg at (dx, dy, sz), on the source's plane. The pending X
// table therefore belongs to one source node, the Y table to one row and
// the Z table to one plane, each flushed when the source leaves it: with
// sources in node order that is O(nodes) scratch and O(pairs) work plus
// the leg walks. A leg's length depends only on its two end coordinates
// in its dimension, so packets are summed per target coordinate alone.
type torusKernel struct {
	t   *Torus
	lb  []uint64
	buf []int
	tot FlowTotals
	err error

	node, row, plane int      // owner of the pending X, Y, Z tables
	sx, sy           int      // coordinates of node
	xb, yb, zb       []uint64 // pending leg bytes by target x; by (y, x); by node id
	xp, yp, zp       []uint64 // pending leg packets by target coordinate
	xn, yn, zn       int      // flows added to each table since its flush
}

func newTorusKernel(t *Torus, linkBytes []uint64) *torusKernel {
	return &torusKernel{
		t: t, lb: linkBytes, node: -1, row: -1, plane: -1,
		xb: make([]uint64, t.x), yb: make([]uint64, t.x*t.y), zb: make([]uint64, t.Nodes()),
		xp: make([]uint64, t.x), yp: make([]uint64, t.y), zp: make([]uint64, t.z),
	}
}

func (k *torusKernel) Add(src, dst int, bytes, _, pkts uint64) {
	if bytes|pkts == 0 {
		return
	}
	if src != k.node {
		k.setSource(src)
	}
	t := k.t
	dx, dy, dz := t.coords(dst)
	if dx != k.sx {
		k.xb[dx] += bytes
		k.xp[dx] += pkts
		k.xn++
	}
	if dy != k.sy {
		k.yb[dy*t.x+dx] += bytes
		k.yp[dy] += pkts
		k.yn++
	}
	if dz != k.plane {
		k.zb[dst] += bytes
		k.zp[dz] += pkts
		k.zn++
	}
}

// setSource flushes the tables the new source does not share with the
// pending one and makes src their owner.
func (k *torusKernel) setSource(src int) {
	k.flushX()
	sx, sy, sz := k.t.coords(src)
	k.node, k.sx, k.sy = src, sx, sy
	if row := sz*k.t.y + sy; row != k.row {
		k.flushY()
		k.row = row
	}
	if sz != k.plane {
		k.flushZ()
		k.plane = sz
	}
}

// legs walks every pending leg of dimension dim, all of which start at
// coordinate from: leg(i) gives the start node and target coordinate of
// byte-table entry i. It adds each leg's bytes onto its links and its
// hops onto the totals, and clears both tables.
func (k *torusKernel) legs(dim, from int, bytes, pkts []uint64, leg func(i int) (start, to int)) {
	size := [3]int{k.t.x, k.t.y, k.t.z}[dim]
	for i, b := range bytes {
		if b == 0 {
			continue
		}
		bytes[i] = 0
		start, to := leg(i)
		if k.err != nil {
			continue
		}
		var err error
		if k.buf, err = k.t.appendLeg(k.buf[:0], start, from, to, dim); err != nil {
			k.err = err
			continue
		}
		for _, li := range k.buf {
			k.lb[li] += b
		}
		k.tot.ByteHops += b * uint64(len(k.buf))
	}
	for c, p := range pkts {
		if p != 0 {
			k.tot.PacketHops += p * uint64(k.t.ringLen(from, c, size))
			pkts[c] = 0
		}
	}
}

func (k *torusKernel) flushX() {
	if k.xn == 0 {
		return
	}
	k.legs(0, k.sx, k.xb, k.xp, func(tx int) (int, int) { return k.node, tx })
	k.xn = 0
}

func (k *torusKernel) flushY() {
	if k.yn == 0 {
		return
	}
	t := k.t
	ry, rz := k.row%t.y, k.row/t.y
	k.legs(1, ry, k.yb, k.yp, func(i int) (int, int) { return t.id(i%t.x, ry, rz), i / t.x })
	k.yn = 0
}

func (k *torusKernel) flushZ() {
	if k.zn == 0 {
		return
	}
	t := k.t
	k.legs(2, k.plane, k.zb, k.zp, func(v int) (int, int) {
		tx, ty, tz := t.coords(v)
		return t.id(tx, ty, k.plane), tz
	})
	k.zn = 0
}

func (k *torusKernel) Finish() (FlowTotals, error) {
	k.flushX()
	k.flushY()
	k.flushZ()
	return k.tot, k.err
}

// fatTreeKernel applies Route's d-mod link choice in closed form: 2, 4
// or 6 link adds per flow, with no route slice. Only routes that reach
// the top stage cross its global links.
type fatTreeKernel struct {
	f   *FatTree
	lb  []uint64
	tot FlowTotals
}

func (k *fatTreeKernel) Add(src, dst int, bytes, msgs, pkts uint64) {
	f, lb := k.f, k.lb
	lb[f.termLink[src]] += bytes
	lb[f.termLink[dst]] += bytes
	hops := uint64(2)
	d := f.d
	if ls, ld := src/d, dst/d; f.stages > 1 && ls != ld {
		ups, par := d/2, (src+dst)&1
		if f.stages == 2 {
			top := dst % ups
			lb[f.midTop[(ls*ups+top)*2+par]] += bytes
			lb[f.midTop[(ld*ups+top)*2+par]] += bytes
			hops = 4
			k.tot.GlobalMsgs += msgs
		} else {
			j := dst % d
			lb[f.leafMid[ls*d+j]] += bytes
			lb[f.leafMid[ld*d+j]] += bytes
			hops = 4
			if ps, pd := ls/d, ld/d; ps != pd {
				top := ld % ups
				lb[f.midTop[((ps*d+j)*ups+top)*2+par]] += bytes
				lb[f.midTop[((pd*d+j)*ups+top)*2+par]] += bytes
				hops = 6
				k.tot.GlobalMsgs += msgs
			}
		}
	}
	k.tot.PacketHops += pkts * hops
	k.tot.ByteHops += bytes * hops
}

func (k *fatTreeKernel) Finish() (FlowTotals, error) { return k.tot, nil }

// switchRouter is implemented by the families whose route between nodes
// on different switches is the source terminal link, a path that depends
// only on the two switches, and the destination terminal link. Node v
// attaches to switch v / perSwitch.
type switchRouter interface {
	switchShape() (switches, perSwitch int)
	terminalLinks() []int
	// appendSwitchRoute appends the inter-switch links of the route from
	// switch s to switch t (none when s == t).
	appendSwitchRoute(buf []int, s, t int) ([]int, error)
}

// switchFlow is the traffic pending toward one destination switch.
type switchFlow struct {
	ds                int32
	bytes, msgs, pkts uint64
}

// switchKernel adds the terminal loads per flow and aggregates the rest
// per destination switch in a row owned by one source switch, routing
// each switch pair once when the row is flushed.
type switchKernel struct {
	sr      switchRouter
	classes []LinkClass
	term    []int
	per     uint32
	lb      []uint64
	buf     []int
	tot     FlowTotals
	err     error

	node    int          // last source node seen
	src     int          // owner of the pending row: node's switch
	slot    []int32      // by destination switch: 1 + its index in pending, or 0
	pending []switchFlow // the row, in first-touch order
}

func (k *switchKernel) Add(src, dst int, bytes, msgs, pkts uint64) {
	if bytes|msgs|pkts == 0 {
		return
	}
	k.lb[k.term[src]] += bytes
	k.lb[k.term[dst]] += bytes
	if src != k.node {
		k.node = src
		if ss := src / int(k.per); ss != k.src {
			k.flush()
			k.src = ss
		}
	}
	ds := uint32(dst) / k.per
	i := k.slot[ds] - 1
	if i < 0 {
		k.pending = append(k.pending, switchFlow{ds: int32(ds)})
		i = int32(len(k.pending) - 1)
		k.slot[ds] = i + 1
	}
	f := &k.pending[i]
	f.bytes += bytes
	f.msgs += msgs
	f.pkts += pkts
}

func (k *switchKernel) flush() {
	for _, f := range k.pending {
		k.slot[f.ds] = 0
		if k.err != nil {
			continue
		}
		var err error
		k.buf, err = k.sr.appendSwitchRoute(k.buf[:0], k.src, int(f.ds))
		if err != nil {
			k.err = err
			continue
		}
		crossesGlobal := false
		for _, li := range k.buf {
			k.lb[li] += f.bytes
			if k.classes[li] == ClassGlobal {
				crossesGlobal = true
			}
		}
		if crossesGlobal {
			k.tot.GlobalMsgs += f.msgs
		}
		hops := uint64(len(k.buf) + 2) // plus the two terminal links
		k.tot.PacketHops += f.pkts * hops
		k.tot.ByteHops += f.bytes * hops
	}
	k.pending = k.pending[:0]
}

func (k *switchKernel) Finish() (FlowTotals, error) {
	k.flush()
	return k.tot, k.err
}
