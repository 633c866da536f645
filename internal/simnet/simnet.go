// Package simnet adds the temporal dimension the paper's static model
// deliberately omits and names as future work ("it seems very promising
// to address dynamic effects"): a flow-level network simulator that
// replays a trace's messages over a topology with finite link bandwidth,
// FIFO link arbitration, and cut-through pipelining.
//
// The model is intentionally light — one reservation per (message, link),
// no adaptive routing, no flow control credits — but it captures the two
// dynamic effects the static analysis cannot: queueing when messages
// contend for a link, and the resulting spread between ideal and observed
// latency. Comparing its measured utilization against the static model's
// upper-bound utilization quantifies how pessimistic or optimistic the
// static view is for a given workload.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/mpi"
	nstats "netloc/internal/stats"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// Options configures a simulation.
type Options struct {
	// BandwidthBytesPerSec is the per-link bandwidth (default 12 GB/s,
	// the paper's assumption).
	BandwidthBytesPerSec float64
	// PacketBytes sets the cut-through head latency per hop: the time to
	// serialize one packet (default 4096, the paper's packet size).
	PacketBytes int
	// MaxMessages aborts the simulation when the expanded message count
	// exceeds this bound (guards against simulating the all-to-all
	// giants by accident). Zero means 4 million.
	MaxMessages int
}

// Normalize fills in defaults (a zero value means "use the default")
// and validates the result. Explicitly non-positive or non-finite
// bandwidth, packet sizes, and message caps used to be accepted
// silently and produced nonsense simulations (negative latencies,
// divide-by-zero serialization times); now every problem is rejected in
// one listing-style error. internal/congest shares this validation for
// the option fields the two simulators have in common.
func (o Options) Normalize() (Options, error) {
	if o.BandwidthBytesPerSec == 0 {
		o.BandwidthBytesPerSec = 12e9
	}
	if o.PacketBytes == 0 {
		o.PacketBytes = comm.DefaultPacketSize
	}
	if o.MaxMessages == 0 {
		o.MaxMessages = 4 << 20
	}
	var probs []string
	// !(x > 0) also catches NaN, which compares false to everything.
	if !(o.BandwidthBytesPerSec > 0) || math.IsInf(o.BandwidthBytesPerSec, 1) {
		probs = append(probs, fmt.Sprintf("bandwidth %g B/s (need a positive, finite rate)", o.BandwidthBytesPerSec))
	}
	if o.PacketBytes < 0 {
		probs = append(probs, fmt.Sprintf("packet size %d B (need > 0)", o.PacketBytes))
	}
	if o.MaxMessages < 0 {
		probs = append(probs, fmt.Sprintf("message cap %d (need > 0)", o.MaxMessages))
	}
	if len(probs) > 0 {
		return o, fmt.Errorf("simnet: invalid options: %s", strings.Join(probs, "; "))
	}
	return o, nil
}

// Stats summarizes a simulation run.
type Stats struct {
	// Messages simulated (after collective expansion).
	Messages int
	// Latency of messages in seconds: release to last-byte arrival.
	MeanLatency   float64
	MedianLatency float64
	P99Latency    float64
	MaxLatency    float64
	// MeanIdealLatency is the mean zero-contention latency; the
	// difference to MeanLatency is pure queueing.
	MeanIdealLatency float64
	// MeanQueueDelay = MeanLatency - MeanIdealLatency.
	MeanQueueDelay float64
	// DelayedShare is the fraction of messages that waited at any link.
	DelayedShare float64
	// Makespan is the time from the first release to the last arrival.
	Makespan float64

	// Slackness (the paper's discussion: "how much leeway a message has
	// before the corresponding receive becomes blocking"): the gap
	// between a message's arrival and the receiving rank's next own
	// network activity, which is the model's proxy for when the data is
	// needed. Messages whose receiver never acts again are excluded.
	SlackSamples int
	MeanSlack    float64
	MedianSlack  float64
	// SlackCoverShare is the fraction of slack samples whose slack is at
	// least the message's own serialization time — those messages could
	// have been sent over a link at half bandwidth without delaying the
	// receiver, the paper's energy argument.
	SlackCoverShare float64
	// MeasuredUtilizationPct is the mean busy share of links that
	// carried traffic, measured over the makespan — the dynamic
	// counterpart of the paper's eq. 5.
	MeasuredUtilizationPct float64
	// MaxLinkBusyPct and MinLinkBusyPct are the busy shares of the
	// hottest and coolest links that carried any traffic — the
	// channel-occupancy extremes around MeasuredUtilizationPct's mean.
	MaxLinkBusyPct float64
	MinLinkBusyPct float64
	// UsedLinks is the number of links that carried traffic.
	UsedLinks int
	// HopsTraversed is the total number of link traversals across all
	// simulated messages (the dynamic counterpart of eq. 3's packet
	// hops, counted per message rather than per packet).
	HopsTraversed uint64
}

// message is one wire transfer with a release time.
type message struct {
	src, dst int32   // ranks
	serial   float64 // seconds on one link
	release  float64 // seconds
}

// rankPair is one distinct (src, dst) rank pair of a prepared trace.
type rankPair struct{ src, dst int32 }

// routeSpan locates one rank pair's link path in a run's route arena;
// n < 0 marks a pair whose ranks share a node.
type routeSpan struct {
	off, n int32
}

// Prepared is a trace expanded once for replay on any topology under
// any mapping: validated options, the wire messages in stable release
// order, their distinct rank pairs and each rank's release timeline.
// Nothing in it depends on the topology or the mapping, so a design
// search or a table cell prepares once and runs every candidate. A
// Prepared is read-only after Prepare and safe for concurrent runs.
type Prepared struct {
	opts  Options
	ranks int
	msgs  []message
	// pairOf[i] indexes msgs[i]'s rank pair in pairs, which lists the
	// distinct pairs in order of first release.
	pairOf []int32
	pairs  []rankPair
	// releases[relOff[r]:relOff[r+1]] is rank r's sorted release
	// timeline, the slackness analysis' proxy for when data is needed.
	relOff   []int32
	releases []float64
}

// Prepare validates the options and expands the trace into its wire
// messages in release order.
func Prepare(t *trace.Trace, opts Options) (*Prepared, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	world, err := mpi.World(t.Meta.Ranks)
	if err != nil {
		return nil, err
	}

	msgs := make([]message, 0, len(t.Events))
	var buf []mpi.Message
	for i, e := range t.Events {
		buf, err = mpi.ExpandEvent(buf[:0], e, world, mpi.ExpandOptions{})
		if err != nil {
			return nil, fmt.Errorf("simnet: event %d: %w", i, err)
		}
		for _, m := range buf {
			if m.Bytes == 0 {
				continue
			}
			msgs = append(msgs, message{
				src: int32(m.Src), dst: int32(m.Dst),
				serial:  float64(m.Bytes) / opts.BandwidthBytesPerSec,
				release: float64(e.Start) / 1e9,
			})
			if len(msgs) > opts.MaxMessages || len(msgs) > math.MaxInt32 {
				return nil, fmt.Errorf("simnet: message count exceeds limit %d", opts.MaxMessages)
			}
		}
	}
	if len(msgs) == 0 {
		return nil, fmt.Errorf("simnet: trace has no wire messages")
	}
	slices.SortStableFunc(msgs, func(a, b message) int { return cmp.Compare(a.release, b.release) })

	// Pairs are numbered in release order, so a run routes (and reports
	// the first routing error of) them in the order messages meet them.
	p := &Prepared{
		opts: opts, ranks: t.Meta.Ranks, msgs: msgs,
		pairOf:   make([]int32, len(msgs)),
		relOff:   make([]int32, t.Meta.Ranks+1),
		releases: make([]float64, len(msgs)),
	}
	ids := make(map[rankPair]int32)
	for i, m := range msgs {
		rp := rankPair{src: m.src, dst: m.dst}
		id, ok := ids[rp]
		if !ok {
			id = int32(len(p.pairs))
			ids[rp] = id
			p.pairs = append(p.pairs, rp)
		}
		p.pairOf[i] = id
		p.relOff[m.src+1]++
	}
	for r := 0; r < t.Meta.Ranks; r++ {
		p.relOff[r+1] += p.relOff[r]
	}
	fill := append([]int32(nil), p.relOff[:t.Meta.Ranks]...)
	for _, m := range msgs {
		p.releases[fill[m.src]] = m.release
		fill[m.src]++
	}
	return p, nil
}

// Simulate replays the trace's wire messages over the topology.
func Simulate(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	p, err := Prepare(t, opts)
	if err != nil {
		return nil, err
	}
	return p.run(topo, mp, true)
}

// Simulate replays the prepared messages over the topology under the
// mapping; the Stats equal the package-level Simulate's.
func (p *Prepared) Simulate(topo topology.Topology, mp *mapping.Mapping) (*Stats, error) {
	return p.run(topo, mp, true)
}

// Makespan replays the prepared messages like Simulate but tracks only
// link occupancy: the Stats carry Messages, HopsTraversed, Makespan and
// the link-busy fields, bit-equal to a full run's, and leave the
// latency and slack fields zero.
func (p *Prepared) Makespan(topo topology.Topology, mp *mapping.Mapping) (*Stats, error) {
	return p.run(topo, mp, false)
}

// run is the one replay kernel. It routes each distinct rank pair once
// into a flat arena (routes depend only on the endpoints), then reserves
// the links of every message in release order. With full false it skips
// the latency and slack bookkeeping; the link reservations, and so the
// makespan and link-busy shares, are the same either way.
func (p *Prepared) run(topo topology.Topology, mp *mapping.Mapping, full bool) (*Stats, error) {
	if mp.Ranks() < p.ranks {
		return nil, fmt.Errorf("simnet: mapping covers %d ranks, trace has %d", mp.Ranks(), p.ranks)
	}
	if mp.Nodes() > topo.Nodes() {
		return nil, fmt.Errorf("simnet: mapping node space %d exceeds topology %s", mp.Nodes(), topo.Name())
	}
	spans := make([]routeSpan, len(p.pairs))
	arena := make([]int32, 0, 4*len(p.pairs))
	var route []int
	for i, rp := range p.pairs {
		ns, err := mp.NodeOf(int(rp.src))
		if err != nil {
			return nil, err
		}
		nd, err := mp.NodeOf(int(rp.dst))
		if err != nil {
			return nil, err
		}
		if ns == nd {
			spans[i].n = -1 // intra-node: no network involvement
			continue
		}
		route, err = topo.Route(ns, nd, route)
		if err != nil {
			return nil, err
		}
		if len(arena)+len(route) > math.MaxInt32 {
			return nil, fmt.Errorf("simnet: route arena exceeds %d links", math.MaxInt32)
		}
		spans[i] = routeSpan{off: int32(len(arena)), n: int32(len(route))}
		for _, li := range route {
			arena = append(arena, int32(li))
		}
	}

	hopLat := float64(p.opts.PacketBytes) / p.opts.BandwidthBytesPerSec // head-packet serialization per hop
	linkFree := make([]float64, len(topo.Links()))
	linkBusy := make([]float64, len(topo.Links()))

	var latencies, slacks []float64
	if full {
		latencies = make([]float64, 0, len(p.msgs))
	}
	var idealSum float64
	var delayed, messages int
	// The makespan window opens at the first message that actually
	// enters the network: intra-node messages are skipped below, so
	// taking msgs[0].release would stretch the window — and skew
	// MeasuredUtilizationPct — whenever the earliest releases stay
	// on-node. msgs is sorted by release, so the first non-skipped
	// message has the earliest network release.
	var firstRelease float64
	haveFirst := false
	var lastArrival float64
	var slackCovered int
	var hopsTraversed uint64

	for i, m := range p.msgs {
		sp := spans[p.pairOf[i]]
		if sp.n < 0 {
			continue
		}
		if !haveFirst {
			firstRelease = m.release
			haveFirst = true
		}
		serial := m.serial
		headTime := m.release
		wasDelayed := false
		for i, li := range arena[sp.off : sp.off+sp.n] {
			if i > 0 {
				headTime += hopLat
			}
			if linkFree[li] > headTime {
				headTime = linkFree[li]
				wasDelayed = true
			}
			linkFree[li] = headTime + serial
			linkBusy[li] += serial
		}
		arrival := headTime + serial
		if arrival > lastArrival {
			lastArrival = arrival
		}
		messages++
		hopsTraversed += uint64(sp.n)
		if !full {
			continue
		}
		latencies = append(latencies, arrival-m.release)
		idealSum += float64(sp.n-1)*hopLat + serial
		if wasDelayed {
			delayed++
		}
		// Slack: time until the receiver's next own release after this
		// arrival.
		if next, ok := nextReleaseAfter(p.releases[p.relOff[m.dst]:p.relOff[m.dst+1]], arrival); ok {
			slack := next - arrival
			slacks = append(slacks, slack)
			if slack >= serial {
				slackCovered++
			}
		}
	}
	if messages == 0 {
		return nil, fmt.Errorf("simnet: all messages were intra-node")
	}

	stats := &Stats{Messages: messages, HopsTraversed: hopsTraversed, Makespan: lastArrival - firstRelease}
	if stats.Makespan > 0 {
		var busySum, busyMax, busyMin float64
		used := 0
		for _, b := range linkBusy {
			if b > 0 {
				busySum += b
				used++
				if b > busyMax {
					busyMax = b
				}
				if busyMin == 0 || b < busyMin {
					busyMin = b
				}
			}
		}
		stats.UsedLinks = used
		if used > 0 {
			stats.MeasuredUtilizationPct = nstats.ClampPct(100 * busySum / (stats.Makespan * float64(used)))
			stats.MinLinkBusyPct = nstats.ClampPct(100 * busyMin / stats.Makespan)
		}
		stats.MaxLinkBusyPct = nstats.ClampPct(100 * busyMax / stats.Makespan)
	}
	if !full {
		return stats, nil
	}

	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	stats.MeanLatency = sum / float64(len(latencies))
	stats.MedianLatency = latencies[len(latencies)/2]
	stats.P99Latency = nstats.NearestRankSorted(latencies, 0.99)
	stats.MaxLatency = latencies[len(latencies)-1]
	stats.MeanIdealLatency = idealSum / float64(len(latencies))
	stats.MeanQueueDelay = stats.MeanLatency - stats.MeanIdealLatency
	if stats.MeanQueueDelay < 0 {
		stats.MeanQueueDelay = 0 // float accumulation noise when nothing queued
	}
	stats.DelayedShare = float64(delayed) / float64(len(latencies))
	if len(slacks) > 0 {
		stats.SlackSamples = len(slacks)
		sort.Float64s(slacks)
		var sum float64
		for _, s := range slacks {
			sum += s
		}
		stats.MeanSlack = sum / float64(len(slacks))
		stats.MedianSlack = slacks[len(slacks)/2]
		stats.SlackCoverShare = float64(slackCovered) / float64(len(slacks))
	}
	return stats, nil
}

// nextReleaseAfter returns the smallest release time strictly after t in
// the sorted timeline.
func nextReleaseAfter(timeline []float64, t float64) (float64, bool) {
	lo, hi := 0, len(timeline)
	for lo < hi {
		mid := (lo + hi) / 2
		if timeline[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(timeline) {
		return 0, false
	}
	return timeline[lo], true
}
