package congest

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The typed queue merged with the injection cursor must pop events in
// exactly (time, seq) order, the order a full sort gives, even when
// many events share a time and heads are re-queued mid-run.
func TestEventQueueMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Few distinct times, so equal times are the common case.
	randTime := func() float64 { return float64(rng.Intn(8)) }
	for trial := 0; trial < 500; trial++ {
		msgs := make([]message, rng.Intn(40))
		for i := range msgs {
			msgs[i].release = randTime()
		}
		sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].release < msgs[j].release })
		extra := float64(rng.Intn(2)) / 2
		var all []event
		for i, m := range msgs {
			all = append(all, event{time: m.release + extra, seq: int32(i)})
		}
		var q eventQueue
		for seq := len(msgs); seq < len(msgs)+rng.Intn(20); seq++ {
			e := event{time: randTime(), seq: int32(seq)}
			q.push(e)
			all = append(all, e)
		}
		var got []event
		cursor := 0
		for cursor < len(msgs) || len(q) > 0 {
			ev, _ := nextEvent(&q, msgs, extra, &cursor)
			got = append(got, ev)
			// Like a head moving to its next hop: same message, strictly
			// later time (the per-hop latency is positive).
			if rng.Intn(3) == 0 {
				e := event{time: ev.time + float64(1+rng.Intn(3)), seq: ev.seq}
				q.push(e)
				all = append(all, e)
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].before(all[j]) })
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: popped\n%v\nwant\n%v", trial, got, all)
		}
	}
}

// A makespan-only run must reproduce the full simulation's makespan
// exactly at every added latency a tolerance sweep probes, under every
// policy: the probes skip the statistics, never the event sequence.
func TestMakespanOnlyRunMatchesSimulate(t *testing.T) {
	// Random point-to-point traffic bursts: enough contention for UGAL
	// to detour, small enough to simulate every probe twice.
	rng := rand.New(rand.NewSource(2))
	var sends []send
	for i := 0; i < 1500; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src != dst {
			sends = append(sends, send{src: src, dst: dst, bytes: uint64(1 + rng.Intn(1<<18)), start: uint64(rng.Intn(20)) * 50_000})
		}
	}
	tr := sendTrace(64, sends)
	topo := dragonfly(t, 64)
	mp := consecutive(t, 64, topo.Nodes())
	for _, policy := range Policies() {
		opts, err := Options{Policy: policy}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		r, err := prepare(tr, topo, mp, opts)
		if err != nil {
			t.Fatal(err)
		}
		detoured := false
		got, err := sweep(r.baseLat, DefaultGrowthPct, func(extra float64) (float64, error) {
			fast, err := r.run(extra, false)
			if err != nil {
				return 0, err
			}
			full, err := Simulate(tr, topo, mp, Options{Policy: policy, ExtraHopLatency: extra})
			if err != nil {
				return 0, err
			}
			if full.DetourShare > 0 {
				detoured = true
			}
			if fast.Makespan != full.Makespan {
				t.Errorf("%s extra=%g: makespan-only run %.17g, full simulation %.17g",
					policy, extra, fast.Makespan, full.Makespan)
			}
			return fast.Makespan, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := LatencyTolerance(tr, topo, mp, Options{Policy: policy}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sweep %+v, LatencyTolerance %+v", policy, got, want)
		}
		if policy == PolicyUGAL && !detoured {
			t.Error("ugal never detoured: the traffic exercises no adaptive choice")
		}
	}
}
