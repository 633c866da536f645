// Package congest is the temporal counterpart of internal/simnet: an
// event-driven network simulator that replays a trace's wire messages
// through per-link FIFO contention queues under a bandwidth-delay
// service model. Where simnet reserves links greedily in release order
// (a deliberate simplification), congest advances a global event clock —
// a message's head requests each link of its route when it actually
// arrives there, waits behind whatever the link already serves, and only
// then moves on — so transient hotspots, queue build-up, and the
// persistence of congestion over time become observable.
//
// Routing is pluggable (see Policies): deterministic shortest paths for
// baseline parity with simnet, ECMP hashing over the equal-cost
// shortest-path DAG of topology.Graph, Valiant random-intermediate
// detours (the dragonfly reuses topology/valiant.go's pivot machinery),
// and a UGAL-style adaptive choice that picks minimal or Valiant per
// message from the queue backlog at decision time.
//
// Everything is deterministic: event ties break on message sequence
// numbers, hashes are seeded splitmix mixes, and no wall clock or
// random source is consulted — the same inputs always produce the same
// Stats, which is what lets the experiment grid fan out over the
// parallel engine with byte-identical results at any worker count.
package congest

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"netloc/internal/mapping"
	"netloc/internal/mpi"
	"netloc/internal/simnet"
	nstats "netloc/internal/stats"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// Routing policy names accepted by Options.Policy.
const (
	// PolicyMinimal replays every message over the topology's own
	// deterministic shortest path — the temporal baseline.
	PolicyMinimal = "minimal"
	// PolicyECMP hashes each (src, dst) flow over the equal-cost
	// shortest paths of the topology's reference graph, the way
	// flow-hashing switches spread load.
	PolicyECMP = "ecmp"
	// PolicyValiant routes every message through a deterministic
	// pseudo-random intermediate (topology/valiant.go for dragonflies,
	// a pivot node elsewhere), trading path length for load spreading.
	PolicyValiant = "valiant"
	// PolicyUGAL chooses per message between the minimal and the
	// Valiant path, whichever promises the earlier delivery given the
	// queue backlog along each at decision time (UGAL's local estimate).
	PolicyUGAL = "ugal"
)

// Policies lists the routing policies in baseline-first order.
func Policies() []string {
	return []string{PolicyMinimal, PolicyECMP, PolicyValiant, PolicyUGAL}
}

// defaultSeed feeds the ECMP flow hash and the Valiant pivot hash when
// Options.Seed is zero, so default runs are reproducible across hosts.
const defaultSeed = 0x4c4c414d50 // "LLAMP"

// DefaultHotspotBuckets is the time resolution of the hotspot
// persistence analysis: the makespan is divided into this many equal
// windows and the hottest link of each window is compared against the
// overall hottest link.
const DefaultHotspotBuckets = 64

// Options configures a temporal simulation. The bandwidth, packet, and
// message-cap fields share simnet.Options' semantics and validation
// (zero means default, negatives are rejected).
type Options struct {
	// Policy is one of Policies(); empty means PolicyMinimal.
	Policy string
	// BandwidthBytesPerSec is the per-link bandwidth (default 12 GB/s).
	BandwidthBytesPerSec float64
	// PacketBytes sets the cut-through head latency per hop (default
	// 4096, the paper's packet size).
	PacketBytes int
	// MaxMessages aborts when the expanded message count exceeds this
	// bound. Zero means 4 million.
	MaxMessages int
	// ExtraHopLatency adds this many seconds to every link traversal's
	// head latency — the knob the LLAMP-style tolerance sweep probes.
	// Must be finite and >= 0.
	ExtraHopLatency float64
	// Seed drives the ECMP flow hash and Valiant pivot choice; zero
	// means a fixed default so results are reproducible.
	Seed uint64
	// HotspotBuckets is the number of time windows of the hotspot
	// persistence analysis; zero means DefaultHotspotBuckets.
	HotspotBuckets int
}

// normalize validates and defaults the options, reusing simnet's
// validation for the fields the two simulators share.
func (o Options) normalize() (Options, error) {
	base, err := simnet.Options{
		BandwidthBytesPerSec: o.BandwidthBytesPerSec,
		PacketBytes:          o.PacketBytes,
		MaxMessages:          o.MaxMessages,
	}.Normalize()
	var probs []string
	if err != nil {
		probs = append(probs, err.Error())
	} else {
		o.BandwidthBytesPerSec = base.BandwidthBytesPerSec
		o.PacketBytes = base.PacketBytes
		o.MaxMessages = base.MaxMessages
	}
	if o.Policy == "" {
		o.Policy = PolicyMinimal
	}
	if !knownPolicy(o.Policy) {
		probs = append(probs, fmt.Sprintf("unknown policy %q (known: %s)", o.Policy, strings.Join(Policies(), ", ")))
	}
	if !(o.ExtraHopLatency >= 0) || math.IsInf(o.ExtraHopLatency, 1) {
		probs = append(probs, fmt.Sprintf("extra hop latency %g s (need finite, >= 0)", o.ExtraHopLatency))
	}
	if o.HotspotBuckets < 0 {
		probs = append(probs, fmt.Sprintf("hotspot buckets %d (need > 0)", o.HotspotBuckets))
	}
	if o.HotspotBuckets == 0 {
		o.HotspotBuckets = DefaultHotspotBuckets
	}
	if o.Seed == 0 {
		o.Seed = defaultSeed
	}
	if len(probs) > 0 {
		return o, fmt.Errorf("congest: invalid options: %s", strings.Join(probs, "; "))
	}
	return o, nil
}

func knownPolicy(p string) bool {
	for _, k := range Policies() {
		if p == k {
			return true
		}
	}
	return false
}

// Stats summarizes one temporal simulation.
type Stats struct {
	// Policy that produced these numbers (normalized, never empty).
	Policy string
	// Messages simulated (inter-node only, after collective expansion).
	Messages int
	// Latency of messages in seconds: release to last-byte arrival.
	MeanLatency float64
	P99Latency  float64
	MaxLatency  float64
	// MeanQueueDelay is the mean time messages spent waiting behind
	// other traffic (observed minus zero-contention latency).
	MeanQueueDelay float64
	// DelayedShare is the fraction of messages that waited at any link.
	DelayedShare float64
	// Makespan is the time from the first network release to the last
	// arrival.
	Makespan float64
	// HopsTraversed counts link traversals over all messages; AvgHops
	// is the per-message mean (Valiant detours push it up).
	HopsTraversed uint64
	AvgHops       float64
	// DetourShare is the fraction of messages sent over a non-minimal
	// (Valiant) path: 0 for minimal/ecmp, 1 for valiant on inter-group
	// traffic, and UGAL's adaptive split in between.
	DetourShare float64
	// UsedLinks is the number of links that carried traffic. The busy
	// percentiles below are taken across those links over the makespan:
	// P50 is the median link's busy share, P99 the near-hottest, Max
	// the hottest.
	UsedLinks      int
	P50LinkBusyPct float64
	P99LinkBusyPct float64
	MaxLinkBusyPct float64
	// MaxQueueDepth is the largest number of messages simultaneously
	// waiting (head blocked, service not started) at any single link.
	MaxQueueDepth int
	// HottestLink is the index of the link with the most busy time.
	// HotspotPersistence is the fraction of busy time windows in which
	// that same link is also the window's busiest — 1.0 means one
	// static hotspot, values near 0 mean the hotspot moves around.
	HottestLink        int
	HotspotPersistence float64
}

// message is one inter-node wire message. Messages are kept in release
// order, and a message's index is its sequence number: the
// deterministic tie-break between events at the same instant.
type message struct {
	src, dst int32 // node vertices
	serial   float64
	release  float64
}

// routeSpan locates one message's link path in a route arena.
type routeSpan struct {
	off, n int32
}

// event is one head-of-message link request in the global clock. A
// message has at most one pending event, so (time, seq) keys are
// unique and every correct queue pops the same sequence.
type event struct {
	time float64
	seq  int32
}

func (a event) before(b event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// eventQueue is a binary min-heap of in-flight heads keyed by
// (time, seq).
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(h[c]) {
				c++
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// nextEvent removes and returns the earliest pending event: either the
// injection of msgs[*cursor] at its release plus extra, or the queue's
// head. Messages are in (release, seq) order, so the injections form a
// sorted stream that needs no heap. injected reports the first kind.
func nextEvent(q *eventQueue, msgs []message, extra float64, cursor *int) (ev event, injected bool) {
	if i := *cursor; i < len(msgs) {
		inj := event{time: msgs[i].release + extra, seq: int32(i)}
		if len(*q) == 0 || inj.before((*q)[0]) {
			*cursor = i + 1
			return inj, true
		}
	}
	return q.pop(), false
}

// reservation records one link occupancy interval for the hotspot pass.
type reservation struct {
	link  int32
	start float64
	dur   float64
}

// linkQueue tracks the service-start times of messages currently
// waiting at one link, so queue depth can be observed without dequeue
// events: entries whose service has started by "now" are expired lazily.
type linkQueue struct {
	starts []float64
	head   int
}

func (q *linkQueue) depthAt(now float64) int {
	for q.head < len(q.starts) && q.starts[q.head] <= now {
		q.head++
	}
	if q.head == len(q.starts) {
		q.starts = q.starts[:0]
		q.head = 0
	}
	return len(q.starts) - q.head
}

func (q *linkQueue) push(start float64) { q.starts = append(q.starts, start) }

// Simulate replays the trace's wire messages over the topology under
// the selected routing policy.
func Simulate(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	r, err := prepare(t, topo, mp, opts)
	if err != nil {
		return nil, err
	}
	return r.run(opts.ExtraHopLatency, true)
}

// replay is a simulation prepared once and run at any added per-hop
// latency: the expanded, release-ordered messages and, for policies
// whose routes never read link state (minimal, ECMP, Valiant), every
// message's route. LatencyTolerance runs one replay for its base run
// and every probe. A replay reuses its buffers across runs, so it must
// not run concurrently.
type replay struct {
	opts    Options
	topo    topology.Topology
	msgs    []message
	rt      router
	ugal    *ugalRouter // non-nil when routes depend on link state
	baseLat float64     // head latency per hop before any extra

	// The route arena and its counts: filled once by prepare for
	// static policies, by every run under UGAL.
	routes  []int32
	spans   []routeSpan
	hops    uint64
	detours int

	// Per-run scratch.
	st    simState
	hop   []int32 // next hop index per message
	queue eventQueue
	path  []int
}

// prepare validates the inputs, expands the trace into inter-node
// messages in release order and routes them when the policy allows.
// opts must be normalized.
func prepare(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*replay, error) {
	if mp.Ranks() < t.Meta.Ranks {
		return nil, fmt.Errorf("congest: mapping covers %d ranks, trace has %d", mp.Ranks(), t.Meta.Ranks)
	}
	if mp.Nodes() > topo.Nodes() {
		return nil, fmt.Errorf("congest: mapping node space %d exceeds topology %s", mp.Nodes(), topo.Name())
	}
	world, err := mpi.World(t.Meta.Ranks)
	if err != nil {
		return nil, err
	}

	bw := opts.BandwidthBytesPerSec
	// Expand the trace into inter-node messages, exactly like simnet:
	// collectives unroll through mpi.ExpandEvent, zero-byte and
	// intra-node messages never enter the network.
	var msgs []message
	var buf []mpi.Message
	for i, e := range t.Events {
		buf, err = mpi.ExpandEvent(buf[:0], e, world, mpi.ExpandOptions{})
		if err != nil {
			return nil, fmt.Errorf("congest: event %d: %w", i, err)
		}
		for _, m := range buf {
			if m.Bytes == 0 {
				continue
			}
			ns, err := mp.NodeOf(m.Src)
			if err != nil {
				return nil, err
			}
			nd, err := mp.NodeOf(m.Dst)
			if err != nil {
				return nil, err
			}
			if ns == nd {
				continue
			}
			msgs = append(msgs, message{
				src: int32(ns), dst: int32(nd),
				serial:  float64(m.Bytes) / bw,
				release: float64(e.Start) / 1e9,
			})
			if len(msgs) > opts.MaxMessages || len(msgs) > math.MaxInt32 {
				return nil, fmt.Errorf("congest: message count exceeds limit %d", opts.MaxMessages)
			}
		}
	}
	if len(msgs) == 0 {
		return nil, fmt.Errorf("congest: trace has no inter-node messages")
	}
	// Sequence numbers follow release order so event ties resolve the
	// way a FIFO injection queue would.
	slices.SortStableFunc(msgs, func(a, b message) int { return cmp.Compare(a.release, b.release) })

	r := &replay{
		opts:    opts,
		topo:    topo,
		msgs:    msgs,
		baseLat: float64(opts.PacketBytes) / bw,
		st:      simState{busyUntil: make([]float64, len(topo.Links()))},
		hop:     make([]int32, len(msgs)),
	}
	r.rt, err = newRouter(opts.Policy, topo, opts.Seed, &r.st, r.baseLat)
	if err != nil {
		return nil, err
	}
	r.spans = make([]routeSpan, len(msgs))
	if u, ok := r.rt.(*ugalRouter); ok {
		r.ugal = u
		return r, nil
	}
	for i := range msgs {
		if err := r.route(i, msgs[i].release); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// route asks the router for message seq's path at time now, appends it
// to the route arena and records its span and counts.
func (r *replay) route(seq int, now float64) error {
	m := r.msgs[seq]
	path, detour, err := r.rt.route(int(m.src), int(m.dst), seq, now, r.path)
	if err != nil {
		return err
	}
	r.path = path
	if len(path) == 0 {
		return fmt.Errorf("congest: empty route for %d->%d on %s", m.src, m.dst, r.topo.Name())
	}
	if len(r.routes)+len(path) > math.MaxInt32 {
		return fmt.Errorf("congest: route arena exceeds %d links", math.MaxInt32)
	}
	r.spans[seq] = routeSpan{off: int32(len(r.routes)), n: int32(len(path))}
	for _, li := range path {
		r.routes = append(r.routes, int32(li))
	}
	r.hops += uint64(len(path))
	if detour {
		r.detours++
	}
	return nil
}

// run replays the prepared messages with extra seconds added to every
// hop's head latency. With full false it tracks only what the makespan
// needs and returns Stats with only Policy and Makespan set; the event
// sequence, and so the makespan, is the same either way.
func (r *replay) run(extra float64, full bool) (*Stats, error) {
	hopLat := r.baseLat + extra
	msgs := r.msgs
	nLinks := len(r.st.busyUntil)
	busyUntil := r.st.busyUntil
	clear(busyUntil)
	clear(r.hop)
	if r.ugal != nil {
		// UGAL decides at injection from this run's backlog, so every
		// run routes afresh.
		r.ugal.hopLat = hopLat
		r.routes, r.hops, r.detours = r.routes[:0], 0, 0
	}

	var (
		busyTime     []float64
		queues       []linkQueue
		reservations []reservation
		latencies    []float64
		delayed      []bool
	)
	if full {
		busyTime = make([]float64, nLinks)
		queues = make([]linkQueue, nLinks)
		resCap := len(msgs)
		if r.ugal == nil {
			resCap = int(r.hops)
		}
		reservations = make([]reservation, 0, resCap)
		latencies = make([]float64, 0, len(msgs))
		delayed = make([]bool, len(msgs))
	}
	var idealSum float64
	var delayedCount int
	var lastArrival float64
	maxQueueDepth := 0

	q := r.queue[:0]
	cursor := 0
	for cursor < len(msgs) || len(q) > 0 {
		ev, injected := nextEvent(&q, msgs, extra, &cursor)
		seq := int(ev.seq)
		now := ev.time
		if injected && r.ugal != nil {
			// Routing decision at injection time: UGAL reads the queue
			// backlog of this exact instant.
			if err := r.route(seq, now); err != nil {
				return nil, err
			}
		}
		m := &msgs[seq]
		sp := r.spans[seq]
		h := r.hop[seq]
		li := r.routes[sp.off+h]
		start := now
		if busyUntil[li] > start {
			start = busyUntil[li]
			if full {
				delayed[seq] = true
			}
		}
		busyUntil[li] = start + m.serial
		if full {
			lq := &queues[li]
			depth := lq.depthAt(now)
			if start > now {
				lq.push(start)
				depth++
			}
			if depth > maxQueueDepth {
				maxQueueDepth = depth
			}
			busyTime[li] += m.serial
			reservations = append(reservations, reservation{link: li, start: start, dur: m.serial})
		}

		if h++; h < sp.n {
			r.hop[seq] = h
			q.push(event{time: start + hopLat, seq: ev.seq})
			continue
		}
		arrival := start + m.serial
		if full {
			latencies = append(latencies, arrival-m.release)
			idealSum += float64(sp.n-1)*hopLat + extra + m.serial
			if delayed[seq] {
				delayedCount++
			}
		}
		if arrival > lastArrival {
			lastArrival = arrival
		}
	}
	r.queue = q

	firstRelease := msgs[0].release
	stats := &Stats{Policy: r.opts.Policy, Makespan: lastArrival - firstRelease}
	if !full {
		return stats, nil
	}
	n := float64(len(latencies))
	stats.Messages = len(latencies)
	stats.HopsTraversed = r.hops
	stats.AvgHops = float64(r.hops) / n
	stats.DelayedShare = float64(delayedCount) / n
	stats.DetourShare = float64(r.detours) / n
	stats.MaxQueueDepth = maxQueueDepth
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	stats.MeanLatency = sum / n
	stats.P99Latency = nstats.NearestRankSorted(latencies, 0.99)
	stats.MaxLatency = latencies[len(latencies)-1]
	stats.MeanQueueDelay = stats.MeanLatency - idealSum/n
	if stats.MeanQueueDelay < 0 {
		stats.MeanQueueDelay = 0 // float accumulation noise when nothing queued
	}
	linkBusyStats(stats, busyTime)
	hotspotStats(stats, reservations, nLinks, r.opts.HotspotBuckets, firstRelease)
	return stats, nil
}

// simState is the per-run link state adaptive routing consults.
type simState struct {
	busyUntil []float64
}

// backlog implements linkLoad: how long a head arriving now would wait.
func (s *simState) backlog(link int, now float64) float64 {
	if b := s.busyUntil[link] - now; b > 0 {
		return b
	}
	return 0
}

// linkBusyStats fills the busy-share distribution over used links.
func linkBusyStats(stats *Stats, busyTime []float64) {
	if stats.Makespan <= 0 {
		return
	}
	var used []float64
	hottest, hottestBusy := 0, 0.0
	for li, b := range busyTime {
		if b > 0 {
			used = append(used, b)
			if b > hottestBusy {
				hottest, hottestBusy = li, b
			}
		}
	}
	stats.UsedLinks = len(used)
	stats.HottestLink = hottest
	if len(used) == 0 {
		return
	}
	sort.Float64s(used)
	stats.P50LinkBusyPct = nstats.ClampPct(100 * used[len(used)/2] / stats.Makespan)
	stats.P99LinkBusyPct = nstats.ClampPct(100 * nstats.NearestRankSorted(used, 0.99) / stats.Makespan)
	stats.MaxLinkBusyPct = nstats.ClampPct(100 * used[len(used)-1] / stats.Makespan)
}

// hotspotStats computes hotspot persistence: the makespan is divided
// into equal windows, each reservation's busy time is binned per
// (window, link), and persistence is the share of busy windows whose
// busiest link is the overall hottest one. Ties break toward the lower
// link index so the measure is deterministic.
func hotspotStats(stats *Stats, reservations []reservation, nLinks, buckets int, t0 float64) {
	if stats.Makespan <= 0 || stats.UsedLinks == 0 {
		return
	}
	width := stats.Makespan / float64(buckets)
	busy := make([]float64, buckets*nLinks)
	for _, r := range reservations {
		lo := r.start - t0
		hi := lo + r.dur
		b0 := int(lo / width)
		b1 := int(hi / width)
		if b0 < 0 {
			b0 = 0
		}
		if b1 >= buckets {
			b1 = buckets - 1
		}
		for b := b0; b <= b1; b++ {
			ws := float64(b) * width
			we := ws + width
			s, e := lo, hi
			if s < ws {
				s = ws
			}
			if e > we {
				e = we
			}
			if e > s {
				busy[b*nLinks+int(r.link)] += e - s
			}
		}
	}
	busyWindows, hottestWins := 0, 0
	for b := 0; b < buckets; b++ {
		row := busy[b*nLinks : (b+1)*nLinks]
		best, bestBusy := -1, 0.0
		for li, v := range row {
			if v > bestBusy {
				best, bestBusy = li, v
			}
		}
		if best < 0 {
			continue // idle window
		}
		busyWindows++
		if best == stats.HottestLink {
			hottestWins++
		}
	}
	if busyWindows > 0 {
		stats.HotspotPersistence = float64(hottestWins) / float64(busyWindows)
	}
}
