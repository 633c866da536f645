package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"netloc/internal/comm"
	"netloc/internal/congest"
	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/harness"
	"netloc/internal/mapping"
	"netloc/internal/metrics"
	"netloc/internal/netmodel"
	"netloc/internal/obs"
	"netloc/internal/parallel"
	"netloc/internal/report"
	"netloc/internal/service"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// The traced run. For each batch workload it first times the top-level
// call at Parallelism 1 with no spans (core.top_s), then replays the same
// inputs through the layers' public functions in pipeline order, each
// call under an obs span opened here (core.traced_s is the replay's wall
// time; the difference to top_s is the tracing overhead plus the
// bookkeeping of the replay). Every replayed result is compared with the
// top-level result. A layer's time is the summed self time of its spans;
// core.unattributed_s is top_s minus the layer times, the work the
// top-level call does outside the replayed functions. Parallelism 1
// keeps the layer times on one blocking path, so they add up.

// uploadReps is how often the replay decodes and analyzes each upload
// body; one pass takes a few milliseconds.
const uploadReps = 5

// tracedRounds is how many rounds of the netlocd mix the traced run
// serves before replaying their cold keys and uploads.
const tracedRounds = 2

func tracedRun(rec *record, seed int64, outDir string) error {
	root := obs.NewTracer(1).StartRun("perfbench")
	for _, step := range []func(*obs.Span, *record) error{tracePaper, traceCongestion, traceDesign} {
		if err := step(root, rec); err != nil {
			return err
		}
	}
	if err := traceNetlocd(root, rec, seed); err != nil {
		return err
	}
	root.End()
	data := root.Data()
	if lost := droppedSpans(data); lost > 0 {
		return fmt.Errorf("the span tree dropped %d spans; layer times would be incomplete", lost)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "trace.json")
	if err := obs.WriteChromeTraceFile(path, data); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Println("# chrome trace:", path)
	return nil
}

// stage runs fn under a child span of parent named after the layer
// function fn calls.
func stage(parent *obs.Span, name string, fn func(sp *obs.Span) error) error {
	sp := parent.Start(name)
	defer sp.End()
	return fn(sp)
}

// layerTotals sums a span tree: self seconds per span name, and counts
// per "span.count" key.
type layerTotals struct {
	self   map[string]float64
	counts map[string]int64
}

// layerSelf returns the summed self time of every layer span (the ones
// named "<layer>.<function>"), excluding the workload and cell spans.
func (t layerTotals) layerSelf() float64 {
	var s float64
	for name, v := range t.self {
		if strings.Contains(name, ".") {
			s += v
		}
	}
	return s
}

func totals(d obs.SpanData) layerTotals {
	t := layerTotals{self: map[string]float64{}, counts: map[string]int64{}}
	var walk func(d obs.SpanData)
	walk = func(d obs.SpanData) {
		child := 0.0
		for _, c := range d.Children {
			child += c.DurationMS
			walk(c)
		}
		t.self[d.Name] += (d.DurationMS - child) / 1000
		for k, v := range d.Counts {
			t.counts[d.Name+"."+k] += v
		}
	}
	walk(d)
	return t
}

func droppedSpans(d obs.SpanData) int {
	n := d.DroppedChildren
	for _, c := range d.Children {
		n += droppedSpans(c)
	}
	return n
}

// traceBatch times a batch workload's top-level call at Parallelism 1
// with no spans, then runs replay under a span named after the workload
// and re-renders the top-level result under a report.render span. It
// records the layer metrics and returns the replay's totals.
func traceBatch(root *obs.Span, rec *record, name string, opts core.Options,
	replay func(wl *obs.Span, g grid) error) (layerTotals, error) {
	b, err := newBatch(name)
	if err != nil {
		return layerTotals{}, err
	}
	opts.Parallelism = 1
	runtime.GC()
	t0 := time.Now()
	g, err := b.call(opts)
	top := time.Since(t0).Seconds()
	if err != nil {
		return layerTotals{}, fmt.Errorf("%s top-level call: %w", name, err)
	}
	rec.check(nil)

	runtime.GC()
	wl := root.Start(name)
	t0 = time.Now()
	rec.check(replay(wl, g))
	rec.check(stage(wl, "report.render", func(*obs.Span) error { return b.check(g) }))
	traced := time.Since(t0).Seconds()
	wl.End()
	t := totals(wl.Data())
	setLayers(rec, name, t, top, traced)
	return t, nil
}

// setLayers records a workload's replay: its layer self times (metric
// "<wl>.<span>_s" for every span the spec lists), top and traced wall
// times, and the unattributed remainder.
func setLayers(rec *record, wl string, t layerTotals, top, traced float64) {
	for _, s := range perLayer {
		name, ok := strings.CutPrefix(s.Name, wl+".")
		if !ok || s.Unit != "s" {
			continue
		}
		if v, ok := t.self[strings.TrimSuffix(name, "_s")]; ok {
			rec.set(s.Name, v, 1)
		}
	}
	rec.set(wl+".core.top_s", top, 1)
	rec.set(wl+".core.traced_s", traced, 1)
	rec.set(wl+".core.unattributed_s", top-t.layerSelf(), 1)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// mismatch collects field differences between a replayed and a
// top-level result.
type mismatch []string

func (m *mismatch) eq(field string, got, want any) {
	if !reflect.DeepEqual(got, want) {
		*m = append(*m, fmt.Sprintf("%s: replay %v, top-level %v", field, got, want))
	}
}

func (m mismatch) err(what string) error {
	if len(m) == 0 {
		return nil
	}
	return fmt.Errorf("%s: replay differs from the top-level result: %s", what, strings.Join(m, "; "))
}

// ---- paper-grid ----

func tracePaper(root *obs.Span, rec *record) error {
	wc := workcache.New(0)
	var ws workcache.Stats
	t, err := traceBatch(root, rec, wlPaper, core.Options{Cache: wc}, func(wl *obs.Span, g grid) error {
		// Drop the top-level call's artifacts (about 800 MB) before the
		// replay builds its own.
		ws, wc = wc.Stats(), nil
		rows := g.(table3Grid)
		topos := workcache.New(0)
		for i, ref := range core.AllConfigurations() {
			cell := wl.Start("cell")
			cell.SetLabel(fmt.Sprintf("%s/%d", ref.App, ref.Ranks))
			err := replayAnalysis(cell, ref, topos, rows[i])
			cell.End()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.set(wlPaper+".workloads.events", float64(t.counts["workloads.generate.events"]), 1)
	rec.set(wlPaper+".netmodel.packet_hops", float64(t.counts["netmodel.run.packet_hops"]), 1)
	rec.set(wlPaper+".workcache.hit_ratio", ratio(ws.Hits, ws.Hits+ws.Misses), int(ws.Hits+ws.Misses))
	rec.set(wlPaper+".workcache.lookups", float64(ws.Hits+ws.Misses), 1)

	// Budget use is only visible with parallel fan-out, so one more
	// untraced call runs at default parallelism on a budget passed in.
	b, err := newBatch(wlPaper)
	if err != nil {
		return err
	}
	budget := parallel.NewBudget(runtime.GOMAXPROCS(0) - 1)
	_, err = b.call(core.Options{Budget: budget})
	rec.check(err)
	bs := budget.Stats()
	rec.set(wlPaper+".parallel.granted", float64(bs.Granted), 1)
	rec.set(wlPaper+".parallel.degraded", float64(bs.Degraded), 1)
	return nil
}

// replayAnalysis replays core.AnalyzeApp for one Table 3 row:
// generate, accumulate, the MPI-level metrics, and build, map and model
// on each of the paper's three topologies. Topologies go through a
// shared artifact cache, as they do in core.
func replayAnalysis(cell *obs.Span, ref core.WorkloadRef, topos *workcache.Cache, want *core.Analysis) error {
	app, err := workloads.Lookup(ref.App)
	if err != nil {
		return err
	}
	var t *trace.Trace
	if err := stage(cell, "workloads.generate", func(sp *obs.Span) error {
		t, err = app.Generate(ref.Ranks)
		if err == nil {
			sp.Add("events", int64(len(t.Events)))
		}
		return err
	}); err != nil {
		return err
	}
	var acc *comm.Accumulated
	if err := stage(cell, "comm.accumulate", func(*obs.Span) error {
		acc, err = comm.Accumulate(t, comm.AccumulateOptions{})
		return err
	}); err != nil {
		return err
	}
	var m mismatch
	hasP2P := acc.P2P.TotalBytes() > 0
	m.eq("HasP2P", hasP2P, want.HasP2P)
	if hasP2P {
		if err := stage(cell, "metrics.locality", func(*obs.Span) error {
			q := metrics.DefaultCoverage
			peers, _ := metrics.Peers(acc.P2P)
			dist, err := metrics.RankDistance(acc.P2P, q)
			if err != nil {
				return err
			}
			loc, err := metrics.RankLocality(acc.P2P, q)
			if err != nil {
				return err
			}
			sel, err := metrics.Selectivity(acc.P2P, q)
			if err != nil {
				return err
			}
			m.eq("Peers", peers, want.Peers)
			m.eq("RankDistance", dist, want.RankDistance)
			m.eq("RankLocality", loc, want.RankLocality)
			m.eq("Selectivity", sel, want.Selectivity)
			return nil
		}); err != nil {
			return err
		}
	}
	tor, ft, df, err := topology.Configs(ref.Ranks)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		cfg  topology.Config
		want *core.TopoResult
	}{{tor, want.Torus}, {ft, want.FatTree}, {df, want.Dragonfly}} {
		run, err := replayModel(cell, acc, c.cfg, topos, core.MappingConsecutive)
		if err != nil {
			return err
		}
		res := run.res
		w := c.want
		if w == nil {
			m = append(m, c.cfg.Kind+": no top-level block")
			continue
		}
		m.eq(c.cfg.Kind+".PacketHops", res.PacketHops, w.PacketHops)
		m.eq(c.cfg.Kind+".Packets", res.Packets, w.Packets)
		m.eq(c.cfg.Kind+".AvgHops", res.AvgHops, w.AvgHops)
		m.eq(c.cfg.Kind+".UtilizationPct", res.UtilizationPct, w.UtilizationPct)
		m.eq(c.cfg.Kind+".UsedLinks", res.UsedLinks, w.UsedLinks)
		m.eq(c.cfg.Kind+".GlobalMsgShare", res.GlobalMsgShare, w.GlobalMsgShare)
	}
	return m.err(fmt.Sprintf("%s/%d", ref.App, ref.Ranks))
}

// modelRun is one replayed build → map → network-model sequence.
type modelRun struct {
	topo topology.Topology
	mp   *mapping.Mapping
	res  *netmodel.Result
}

// replayModel builds (or reuses) a topology, maps onto it with the named
// strategy (core.BuildMapping, which calls into the mapping layer), and
// runs the network model with link tracking, as core and design do.
func replayModel(cell *obs.Span, acc *comm.Accumulated, cfg topology.Config, topos *workcache.Cache, mappingName string) (modelRun, error) {
	var run modelRun
	var err error
	if run.topo, err = buildTopology(cell, cfg, topos); err != nil {
		return run, err
	}
	if err := stage(cell, "mapping."+mappingName, func(*obs.Span) error {
		run.mp, err = core.BuildMapping(mappingName, acc, run.topo)
		return err
	}); err != nil {
		return run, err
	}
	err = stage(cell, "netmodel.run", func(sp *obs.Span) error {
		run.res, err = netmodel.Run(acc.Wire, run.topo, run.mp, netmodel.Options{WallTime: acc.Meta.WallTime, TrackLinks: true})
		if err == nil {
			sp.Add("packet_hops", int64(run.res.PacketHops))
		}
		return err
	})
	return run, err
}

func buildTopology(cell *obs.Span, cfg topology.Config, topos *workcache.Cache) (topology.Topology, error) {
	return topos.Topology(cfg, func() (topology.Topology, error) {
		var topo topology.Topology
		err := stage(cell, "topology.build", func(*obs.Span) error {
			var err error
			topo, err = cfg.Build()
			return err
		})
		return topo, err
	})
}

// ---- congestion-grid ----

func traceCongestion(root *obs.Span, rec *record) error {
	t, err := traceBatch(root, rec, wlCongestion, core.Options{}, func(wl *obs.Span, g grid) error {
		rows := g.(congestionRows)
		topos := workcache.New(0)
		for _, ref := range congestionRefs {
			cell := wl.Start("cell")
			cell.SetLabel(fmt.Sprintf("%s/%d", ref.App, ref.Ranks))
			n, err := replayCongestion(cell, ref, topos, rows)
			cell.End()
			if err != nil {
				return err
			}
			rows = rows[n:]
		}
		return nil
	})
	if err != nil {
		return err
	}
	msgs := t.counts["congest.simulate.messages"]
	rec.set(wlCongestion+".congest.messages", float64(msgs), 1)
	rec.set(wlCongestion+".congest.msgs_per_s", float64(msgs)/t.self["congest.simulate"], 1)
	rec.set(wlCongestion+".congest.probes", float64(t.counts["congest.tolerance.probes"]), 1)
	return nil
}

// replayCongestion replays one workload's rows of core.CongestionTable
// and returns how many rows it covered.
func replayCongestion(cell *obs.Span, ref core.WorkloadRef, topos *workcache.Cache, want []core.CongestionRow) (int, error) {
	app, err := workloads.Lookup(ref.App)
	if err != nil {
		return 0, err
	}
	var t *trace.Trace
	if err := stage(cell, "workloads.generate", func(*obs.Span) error {
		t, err = app.Generate(ref.Ranks)
		return err
	}); err != nil {
		return 0, err
	}
	var m mismatch
	k := 0
	for _, fam := range []string{"torus", "fattree", "dragonfly"} {
		cfg, err := core.ConfigFor(fam, ref.Ranks)
		if err != nil {
			return k, err
		}
		topo, err := buildTopology(cell, cfg, topos)
		if err != nil {
			return k, err
		}
		var mp *mapping.Mapping
		if err := stage(cell, "mapping.consecutive", func(*obs.Span) error {
			mp, err = mapping.Consecutive(ref.Ranks, topo.Nodes())
			return err
		}); err != nil {
			return k, err
		}
		for _, policy := range congest.Policies() {
			if k >= len(want) {
				return k, errors.New("the top-level grid has fewer rows than the replay")
			}
			w := want[k]
			k++
			label := fmt.Sprintf("%s/%d %s %s", ref.App, ref.Ranks, fam, policy)
			opts := congest.Options{Policy: policy}
			var st *congest.Stats
			if err := stage(cell, "congest.simulate", func(sp *obs.Span) error {
				st, err = congest.Simulate(t, topo, mp, opts)
				if err == nil {
					sp.Add("messages", int64(st.Messages))
				}
				return err
			}); err != nil {
				return k, err
			}
			m.eq(label+" stats", *st, w.Stats)
			if policy != congest.PolicyMinimal {
				continue
			}
			var tol *congest.Tolerance
			if err := stage(cell, "congest.tolerance", func(sp *obs.Span) error {
				tol, err = congest.LatencyTolerance(t, topo, mp, opts, 0)
				if err == nil {
					sp.Add("probes", int64(tol.Probes))
				}
				return err
			}); err != nil {
				return k, err
			}
			m.eq(label+" tolerance", tol, w.Tolerance)
		}
	}
	return k, m.err(fmt.Sprintf("%s/%d", ref.App, ref.Ranks))
}

// ---- design-search ----

func traceDesign(root *obs.Span, rec *record) error {
	t, err := traceBatch(root, rec, wlDesign, core.Options{}, func(wl *obs.Span, g grid) error {
		return replayDesign(wl, g.(designSheet).Sheet)
	})
	if err != nil {
		return err
	}
	rec.set(wlDesign+".simnet.messages", float64(t.counts["simnet.simulate.messages"]), 1)
	return nil
}

// replayDesign replays design.Search: enumerate the candidates, generate
// and accumulate the workload once, then build, map, model and simulate
// every candidate under every default mapping.
func replayDesign(wl *obs.Span, sheet *design.Sheet) error {
	req := designRequest
	var cfgs []topology.Config
	err := stage(wl, "design.candidates", func(*obs.Span) error {
		var err error
		cfgs, err = design.Candidates(req.Ranks, design.Families(), req.Constraints)
		return err
	})
	if err != nil {
		return err
	}
	if len(cfgs) != sheet.Configs {
		return fmt.Errorf("design: replay enumerated %d configurations, top-level %d", len(cfgs), sheet.Configs)
	}
	app, err := workloads.Lookup(req.App)
	if err != nil {
		return err
	}
	var t *trace.Trace
	if err := stage(wl, "workloads.generate", func(*obs.Span) error {
		t, err = app.Generate(req.Ranks)
		return err
	}); err != nil {
		return err
	}
	var acc *comm.Accumulated
	if err := stage(wl, "comm.accumulate", func(*obs.Span) error {
		acc, err = comm.Accumulate(t, comm.AccumulateOptions{})
		return err
	}); err != nil {
		return err
	}
	rows := map[string]design.Row{}
	for _, r := range sheet.Rows {
		rows[r.Name] = r
	}
	topos := workcache.New(0)
	var m mismatch
	for _, cfg := range cfgs {
		cell := wl.Start("cell")
		cell.SetLabel(cfg.Kind + cfg.String())
		err := func() error {
			defer cell.End()
			for _, name := range design.DefaultMappings() {
				run, err := replayModel(cell, acc, cfg, topos, name)
				if err != nil {
					return err
				}
				nm, topo := run.res, run.topo
				var sim *simnet.Stats
				if err := stage(cell, "simnet.simulate", func(sp *obs.Span) error {
					sim, err = simnet.Simulate(t, topo, run.mp, simnet.Options{})
					if err == nil {
						sp.Add("messages", int64(sim.Messages))
					}
					return err
				}); err != nil {
					return err
				}
				key := cfg.Kind + cfg.String() + "+" + name
				w, ok := rows[key]
				if !ok {
					m = append(m, key+": no top-level row")
					continue
				}
				m.eq(key+" AvgHops", nm.AvgHops, w.AvgHops)
				m.eq(key+" UtilizationPct", nm.UtilizationPct, w.UtilizationPct)
				m.eq(key+" GlobalMsgShare", nm.GlobalMsgShare, w.GlobalMsgShare)
				m.eq(key+" MakespanSec", sim.Makespan, w.MakespanSec)
				m.eq(key+" SimUtilizationPct", sim.MeasuredUtilizationPct, w.SimUtilizationPct)
				m.eq(key+" Cost", topology.CostOf(topo), w.Cost)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return m.err("design")
}

// ---- netlocd-mixed ----

// serviceSnapshot is the part of the service's GET /metrics JSON the
// traced run reads.
type serviceSnapshot struct {
	Cache     struct{ Hits, Misses int64 }
	Workcache struct{ Hits, Misses int64 }
	Compute   struct{ Executed int64 }
	Engine    struct {
		QueueWait struct {
			Count  int64
			MeanMS float64 `json:"mean_ms"`
		} `json:"queue_wait_ms"`
	}
}

func (e *netlocdEnv) snapshot() (serviceSnapshot, error) {
	var s serviceSnapshot
	b, err := e.get("/metrics")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

func traceNetlocd(root *obs.Span, rec *record, seed int64) error {
	e, err := newNetlocdEnv(1)
	if err != nil {
		return err
	}
	defer e.Close()
	before, err := e.snapshot()
	if err != nil {
		return err
	}
	sched := newScheduler(seed, len(e.combos), len(hotPaths), len(e.bodies))
	type cold struct {
		req  request
		body []byte
	}
	var colds []cold
	for r := 0; r < tracedRounds; r++ {
		reqs := sched.round()
		_, replies := e.runRound(reqs, true)
		for i, rep := range replies {
			rec.check(rep.err)
			if rep.err == nil && reqs[i].Class == classCold {
				colds = append(colds, cold{reqs[i], rep.body})
			}
		}
	}
	after, err := e.snapshot()
	if err != nil {
		return err
	}
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	rec.set(wlNetlocd+".service.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	rec.set(wlNetlocd+".service.computations", float64(after.Compute.Executed-before.Compute.Executed), 1)
	qa, qb := after.Engine.QueueWait, before.Engine.QueueWait
	waits := qa.Count - qb.Count
	wait := 0.0
	if waits > 0 {
		wait = (qa.MeanMS*float64(qa.Count) - qb.MeanMS*float64(qb.Count)) / float64(waits)
	}
	rec.set(wlNetlocd+".service.queue_wait_ms", wait, int(waits))
	wh, wm := after.Workcache.Hits-before.Workcache.Hits, after.Workcache.Misses-before.Workcache.Misses
	rec.set(wlNetlocd+".workcache.hit_ratio", ratio(wh, wh+wm), int(wh+wm))

	runtime.GC()
	wl := root.Start(wlNetlocd)
	for i, body := range e.bodies {
		rec.check(replayUpload(wl, uploadRefs[i], body, e.digests))
	}
	// Cold keys replay on an artifact cache warmed the way the server's
	// was, grouped by configuration so each cell span is contiguous.
	wc := workcache.New(0)
	warmed := map[string]bool{}
	for _, c := range e.combos {
		k := fmt.Sprintf("%s/%d/%s", c.App, c.Ranks, c.Topo)
		if !warmed[k] {
			warmed[k] = true
			if _, err := core.AnalyzeAppOn(c.App, c.Ranks, c.Topo, "", core.Options{Parallelism: 1, Cache: wc}); err != nil {
				return err
			}
		}
	}
	sort.SliceStable(colds, func(i, j int) bool { return colds[i].req.Index < colds[j].req.Index })
	var cell *obs.Span
	label := ""
	for _, c := range colds {
		combo := e.combos[c.req.Index]
		if l := fmt.Sprintf("%s/%d", combo.App, combo.Ranks); l != label {
			cell.End()
			cell, label = wl.Start("cell"), l
			cell.SetLabel(l)
		}
		rec.check(replayCold(cell, combo, c.req.Coverage, c.body, wc))
	}
	cell.End()
	wl.End()
	t := totals(wl.Data())
	for _, name := range []string{"trace.decode", "comm.accumulate_stream", "core.analyze_trace", "core.analyze_on"} {
		rec.set(wlNetlocd+"."+name+"_s", t.self[name], 1)
	}
	rec.set(wlNetlocd+".trace.decode_mb_per_s", float64(t.counts["trace.decode.bytes"])/1e6/t.self["trace.decode"], 1)
	return nil
}

// replayUpload replays what POST /v1/traces/analyze does with a body:
// decode, then analyze. It also accumulates the body through the
// streaming reader, the path that never materializes the events, and
// checks it yields the same matrices.
func replayUpload(wl *obs.Span, ref core.WorkloadRef, body []byte, digests digestSet) error {
	cell := wl.Start("cell")
	cell.SetLabel("upload " + uploadName(ref))
	defer cell.End()
	for rep := 0; rep < uploadReps; rep++ {
		var t *trace.Trace
		err := stage(cell, "trace.decode", func(sp *obs.Span) error {
			var err error
			t, err = trace.ReadTrace(bytes.NewReader(body))
			sp.Add("bytes", int64(len(body)))
			return err
		})
		if err != nil {
			return err
		}
		var streamed *comm.Accumulated
		if err := stage(cell, "comm.accumulate_stream", func(*obs.Span) error {
			r, err := trace.NewReader(bytes.NewReader(body))
			if err != nil {
				return err
			}
			streamed, err = comm.AccumulateStream(r, comm.AccumulateOptions{})
			return err
		}); err != nil {
			return err
		}
		var a *core.Analysis
		if err := stage(cell, "core.analyze_trace", func(*obs.Span) error {
			a, err = core.AnalyzeTrace(t, core.Options{Parallelism: 1})
			return err
		}); err != nil {
			return err
		}
		var m mismatch
		m.eq("P2P bytes", streamed.P2P.TotalBytes(), a.Acc.P2P.TotalBytes())
		m.eq("wire bytes", streamed.Wire.TotalBytes(), a.Acc.Wire.TotalBytes())
		m.eq("caller bytes", [2]uint64{streamed.CallerP2PBytes, streamed.CallerCollBytes},
			[2]uint64{a.Acc.CallerP2PBytes, a.Acc.CallerCollBytes})
		if err := m.err("upload " + uploadName(ref) + " streamed"); err != nil {
			return err
		}
		a.Acc = nil
		b, err := report.JSONBytes(&harness.Result{Experiment: "trace", Rows: []*core.Analysis{a}})
		if err != nil {
			return err
		}
		if got, want := sha256Hex(b), digests.Uploads[uploadName(ref)]; got != want {
			return fmt.Errorf("upload %s: replayed reply digest %s, reference %s", uploadName(ref), got, want)
		}
	}
	return nil
}

// replayCold replays one cold /v1/analyze request and compares the
// reply it would produce with the one the server sent.
func replayCold(cell *obs.Span, c coldCombo, coverage string, served []byte, wc *workcache.Cache) error {
	cov, err := strconv.ParseFloat(coverage, 64)
	if err != nil {
		return err
	}
	var a *core.Analysis
	if err := stage(cell, "core.analyze_on", func(*obs.Span) error {
		a, err = core.AnalyzeAppOn(c.App, c.Ranks, c.Topo, c.Mapping, core.Options{Coverage: cov, Parallelism: 1, Cache: wc})
		return err
	}); err != nil {
		return err
	}
	b, err := report.JSONBytes(&service.AnalyzeResult{
		App: a.App, Ranks: a.Ranks, Topology: c.Topo, Mapping: c.Mapping, Coverage: cov, Analysis: a,
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(b, served) {
		return fmt.Errorf("cold %s/%d %s %s coverage %s: replayed reply differs from the served one", c.App, c.Ranks, c.Topo, c.Mapping, coverage)
	}
	return nil
}
