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
	"fmt"
	"math"
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
	src, dst int
	bytes    uint64
	release  float64 // seconds
}

// Simulate replays the trace's wire messages over the topology.
func Simulate(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if mp.Ranks() < t.Meta.Ranks {
		return nil, fmt.Errorf("simnet: mapping covers %d ranks, trace has %d", mp.Ranks(), t.Meta.Ranks)
	}
	if mp.Nodes() > topo.Nodes() {
		return nil, fmt.Errorf("simnet: mapping node space %d exceeds topology %s", mp.Nodes(), topo.Name())
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
				src: m.Src, dst: m.Dst, bytes: m.Bytes,
				release: float64(e.Start) / 1e9,
			})
			if len(msgs) > opts.MaxMessages {
				return nil, fmt.Errorf("simnet: message count exceeds limit %d", opts.MaxMessages)
			}
		}
	}
	if len(msgs) == 0 {
		return nil, fmt.Errorf("simnet: trace has no wire messages")
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].release < msgs[j].release })

	bw := opts.BandwidthBytesPerSec
	hopLat := float64(opts.PacketBytes) / bw // head-packet serialization per hop
	linkFree := make([]float64, len(topo.Links()))
	linkBusy := make([]float64, len(topo.Links()))

	// Per-rank release timelines for the slackness analysis: the sorted
	// release times of each rank's own messages.
	releasesByRank := make([][]float64, t.Meta.Ranks)
	for _, m := range msgs {
		releasesByRank[m.src] = append(releasesByRank[m.src], m.release)
	}

	latencies := make([]float64, 0, len(msgs))
	var idealSum float64
	var delayed int
	// The makespan window opens at the first message that actually
	// enters the network: intra-node messages are skipped below, so
	// taking msgs[0].release would stretch the window — and skew
	// MeasuredUtilizationPct — whenever the earliest releases stay
	// on-node. msgs is sorted by release, so the first non-skipped
	// message has the earliest network release.
	var firstRelease float64
	haveFirst := false
	var lastArrival float64
	var slacks []float64
	var slackCovered int
	var hopsTraversed uint64

	var route []int
	for _, m := range msgs {
		ns, err := mp.NodeOf(m.src)
		if err != nil {
			return nil, err
		}
		nd, err := mp.NodeOf(m.dst)
		if err != nil {
			return nil, err
		}
		if ns == nd {
			continue // intra-node: no network involvement
		}
		if !haveFirst {
			firstRelease = m.release
			haveFirst = true
		}
		route, err = topo.Route(ns, nd, route)
		if err != nil {
			return nil, err
		}
		serial := float64(m.bytes) / bw
		ideal := float64(len(route)-1)*hopLat + serial
		hopsTraversed += uint64(len(route))

		headTime := m.release
		wasDelayed := false
		for i, li := range route {
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
		lat := arrival - m.release
		latencies = append(latencies, lat)
		idealSum += ideal
		if wasDelayed {
			delayed++
		}
		if arrival > lastArrival {
			lastArrival = arrival
		}
		// Slack: time until the receiver's next own release after this
		// arrival.
		if next, ok := nextReleaseAfter(releasesByRank[m.dst], arrival); ok {
			slack := next - arrival
			slacks = append(slacks, slack)
			if slack >= serial {
				slackCovered++
			}
		}
	}
	if len(latencies) == 0 {
		return nil, fmt.Errorf("simnet: all messages were intra-node")
	}

	stats := &Stats{Messages: len(latencies), HopsTraversed: hopsTraversed}
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
	stats.Makespan = lastArrival - firstRelease

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
