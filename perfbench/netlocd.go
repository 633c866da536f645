package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netloc/internal/core"
	"netloc/internal/service"
	"netloc/internal/trace"
	"netloc/internal/workloads"
)

// clients is the closed loop's size: each client sends its next request
// only after the previous reply, so a slower server receives less load.
// Two matches the two CPUs the benchmark was sized on.
const clients = 2

// The three request classes of the mix.
const (
	classHot    = "hot"    // result-cache hits over keys warmed at set-up
	classCold   = "cold"   // /v1/analyze keys never sent before
	classUpload = "upload" // POST /v1/traces/analyze, never cached
)

// hotPaths are GETs warmed during set-up; in the mix they are served
// from the result cache.
var hotPaths = []string{
	"/v1/analyze?app=LULESH&mapping=consecutive&ranks=64&topo=torus",
	"/v1/analyze?app=AMG&mapping=greedy&ranks=216&topo=dragonfly",
	"/v1/analyze?app=Crystal+Router&mapping=random&ranks=100&topo=fattree",
	"/v1/analyze?app=MiniFE&mapping=consecutive&ranks=144&topo=slimfly",
	"/v1/analyze?app=CESAR+MOCFE&ranks=256",
	"/v1/experiments/table3?maxranks=64",
	"/v1/topologies?ranks=216",
	"/v1/topologies?ranks=1000",
}

// uploadRefs are the traces encoded as .nlt bodies during set-up.
var uploadRefs = []core.WorkloadRef{
	{App: "LULESH", Ranks: 64},
	{App: "CESAR MOCFE", Ranks: 64},
	{App: "Crystal Router", Ranks: 100},
	{App: "AMG", Ranks: 27},
}

func uploadName(ref core.WorkloadRef) string { return fmt.Sprintf("%s/%d", ref.App, ref.Ranks) }

// coldMappings excludes "refined", whose local search would dominate the
// cold class on its own.
var coldMappings = []string{core.MappingConsecutive, core.MappingRandom, core.MappingGreedy}

// Cold keys come from configurations of 27 to 128 ranks. Smaller ones
// are trivial; greedy mapping on 256-rank fat trees and dragonflies
// takes 0.2–0.7 s a request and would leave too few requests in a run
// for stable tails.
const coldMinRanks, coldMaxRanks = 27, 128

// coldCombo is one (app, ranks, topology, mapping) point of the cold key
// space; coverage makes each request's key new.
type coldCombo struct {
	App     string
	Ranks   int
	Topo    string
	Mapping string
}

func coldCombos() []coldCombo {
	var out []coldCombo
	for _, ref := range core.AllConfigurations() {
		if ref.Ranks < coldMinRanks || ref.Ranks > coldMaxRanks {
			continue
		}
		for _, kind := range core.AnalysisKinds() {
			for _, m := range coldMappings {
				out = append(out, coldCombo{App: ref.App, Ranks: ref.Ranks, Topo: kind, Mapping: m})
			}
		}
	}
	return out
}

// request is one scheduled request. Index selects the hot path, the
// upload body or the cold combo; Coverage is the cold key's coverage.
type request struct {
	Class    string
	Index    int
	Coverage string
}

// scheduler generates the seeded request schedule one round at a time.
// Each round holds every cold combo once, at a coverage that combo has
// not been sent with before, plus 3.5 hot requests and 0.5 uploads per
// cold one (70% hot, 20% cold, 10% upload), in seeded order. Rounds
// therefore carry equal work, so the round time is steady across rounds
// and seeds.
type scheduler struct {
	rng                  *rand.Rand
	combos, hot, uploads int
	used                 []map[int]bool // per combo: coverage ticks sent
}

func newScheduler(seed int64, combos, hot, uploads int) *scheduler {
	s := &scheduler{rng: rand.New(rand.NewSource(seed)), combos: combos, hot: hot, uploads: uploads}
	s.used = make([]map[int]bool, combos)
	for i := range s.used {
		s.used[i] = map[int]bool{}
	}
	return s
}

// coverageTicks bounds the cold coverages to 0.5000..0.8999, which
// excludes the 0.9 default the set-up requests use.
const coverageTicks = 4000

func (s *scheduler) round() []request {
	c := s.combos
	reqs := make([]request, 0, 5*c)
	for i := 0; i < c; i++ {
		if len(s.used[i]) == coverageTicks {
			panic("perfbench: cold key space exhausted")
		}
		k := s.rng.Intn(coverageTicks)
		for s.used[i][k] {
			k = s.rng.Intn(coverageTicks)
		}
		s.used[i][k] = true
		reqs = append(reqs, request{Class: classCold, Index: i, Coverage: fmt.Sprintf("0.%04d", 5000+k)})
	}
	for i := 0; i < 7*c/2; i++ {
		reqs = append(reqs, request{Class: classHot, Index: s.rng.Intn(s.hot)})
	}
	off := s.rng.Intn(s.uploads)
	for i := 0; i < c/2; i++ {
		reqs = append(reqs, request{Class: classUpload, Index: (off + i) % s.uploads})
	}
	s.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// netlocdEnv is a set-up netlocd: an in-process server behind httptest,
// the encoded upload bodies and the warmed hot responses.
type netlocdEnv struct {
	srv     *service.Server
	ts      *httptest.Server
	client  *http.Client
	combos  []coldCombo
	bodies  [][]byte
	hot     [][]byte
	digests digestSet
}

// newNetlocdEnv starts a server with the given worker count (0 means
// GOMAXPROCS, the daemon's default), encodes the upload bodies, warms
// the hot keys, and warms the artifact cache with every cold combo's
// trace, matrices and topology, so cold requests compute only metrics,
// mapping and the network model.
func newNetlocdEnv(workers int) (*netlocdEnv, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Options{Workers: workers})
	e := &netlocdEnv{srv: srv, ts: httptest.NewServer(srv), combos: coldCombos(), digests: digests}
	e.client = e.ts.Client()
	if err := e.warm(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func (e *netlocdEnv) warm() error {
	for _, ref := range uploadRefs {
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return err
		}
		t, err := app.Generate(ref.Ranks)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, t); err != nil {
			return fmt.Errorf("encoding %s: %w", uploadName(ref), err)
		}
		e.bodies = append(e.bodies, buf.Bytes())
	}
	for i := range hotPaths {
		b, err := e.do(request{Class: classHot, Index: i})
		if err != nil {
			return fmt.Errorf("warming %s: %w", hotPaths[i], err)
		}
		e.hot = append(e.hot, b)
	}
	seen := map[string]bool{}
	for _, c := range e.combos {
		p := "/v1/analyze?" + url.Values{
			"app": {c.App}, "ranks": {strconv.Itoa(c.Ranks)}, "topo": {c.Topo},
		}.Encode()
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, err := e.get(p); err != nil {
			return fmt.Errorf("warming %s: %w", p, err)
		}
	}
	return nil
}

// Close stops the server and waits for its connections to finish.
func (e *netlocdEnv) Close() {
	e.ts.Close()
	e.srv.Close()
}

func (e *netlocdEnv) path(r request) string {
	switch r.Class {
	case classHot:
		return hotPaths[r.Index]
	case classCold:
		c := e.combos[r.Index]
		return "/v1/analyze?" + url.Values{
			"app": {c.App}, "ranks": {strconv.Itoa(c.Ranks)}, "topo": {c.Topo},
			"mapping": {c.Mapping}, "coverage": {r.Coverage},
		}.Encode()
	}
	return "/v1/traces/analyze"
}

// do sends one request and returns the body of a 200 reply.
func (e *netlocdEnv) do(r request) ([]byte, error) {
	if r.Class != classUpload {
		return e.get(e.path(r))
	}
	resp, err := e.client.Post(e.ts.URL+e.path(r), "application/octet-stream", bytes.NewReader(e.bodies[r.Index]))
	return readReply(resp, err)
}

func (e *netlocdEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.ts.URL + path)
	return readReply(resp, err)
}

func readReply(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if len(b) > 200 {
			b = b[:200]
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// topoField is the Analysis JSON field holding each topology's block.
var topoField = map[string]string{
	"torus": "Torus", "fattree": "FatTree", "dragonfly": "Dragonfly",
	"slimfly": "SlimFly", "jellyfish": "Jellyfish", "hyperx": "HyperX",
}

// check verifies a reply: hot replies must equal their warm-up bytes,
// uploads must match the committed digest of their body, and cold
// replies must echo their key and carry the requested topology block.
func (e *netlocdEnv) check(r request, body []byte) error {
	switch r.Class {
	case classHot:
		if !bytes.Equal(body, e.hot[r.Index]) {
			return fmt.Errorf("hot %s: reply differs from its warm-up reply", hotPaths[r.Index])
		}
	case classUpload:
		name := uploadName(uploadRefs[r.Index])
		if got, want := sha256Hex(body), e.digests.Uploads[name]; got != want {
			return fmt.Errorf("upload %s: reply digest %s, reference %s", name, got, want)
		}
	case classCold:
		c := e.combos[r.Index]
		var got struct {
			App      string                     `json:"app"`
			Ranks    int                        `json:"ranks"`
			Topology string                     `json:"topology"`
			Mapping  string                     `json:"mapping"`
			Coverage float64                    `json:"coverage"`
			Analysis map[string]json.RawMessage `json:"analysis"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("cold %s: %w", e.path(r), err)
		}
		cov, _ := strconv.ParseFloat(r.Coverage, 64)
		block := got.Analysis[topoField[c.Topo]]
		if got.App != c.App || got.Ranks != c.Ranks || got.Topology != c.Topo || got.Mapping != c.Mapping ||
			got.Coverage != cov || len(block) == 0 || string(block) == "null" {
			return fmt.Errorf("cold %s: reply does not answer the request", e.path(r))
		}
	}
	return nil
}

// reply is the outcome of one scheduled request.
type reply struct {
	latency time.Duration
	body    []byte // kept only when the caller asked for it
	err     error
}

// runRound sends one round through the closed loop and returns when
// every client is done, with the replies in schedule order.
func (e *netlocdEnv) runRound(reqs []request, keepBodies bool) (time.Duration, []reply) {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				body, err := e.do(reqs[i])
				lat := time.Since(t0)
				if err == nil {
					err = e.check(reqs[i], body)
				}
				out[i] = reply{latency: lat, err: err}
				if keepBodies {
					out[i].body = body
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), out
}

// runNetlocd drives the mix for about d in whole rounds and records the
// end-to-end metrics: wall_s is the median round time, alloc_mb is per
// 1000 requests.
func runNetlocd(rec *record, seed int64, d time.Duration) error {
	e, err := newNetlocdEnv(0)
	if err != nil {
		return err
	}
	defer e.Close()
	sched := newScheduler(seed, len(e.combos), len(hotPaths), len(e.bodies))
	lat := map[string][]float64{}
	var rounds, allocs []float64
	var total float64
	requests := 0
	start := time.Now()
	for {
		reqs := sched.round()
		runtime.GC()
		a0 := totalAllocMB()
		dt, replies := e.runRound(reqs, false)
		allocs = append(allocs, (totalAllocMB()-a0)*1000/float64(len(reqs)))
		rounds = append(rounds, dt.Seconds())
		total += dt.Seconds()
		requests += len(reqs)
		for i, r := range replies {
			rec.check(r.err)
			if r.err == nil {
				lat[reqs[i].Class] = append(lat[reqs[i].Class], float64(r.latency)/float64(time.Millisecond))
			}
		}
		if time.Since(start).Seconds()+median(rounds) > d.Seconds() {
			break
		}
	}
	rec.set("wall_s", median(rounds), len(rounds))
	rec.set("alloc_mb", median(allocs), len(allocs))
	rec.set("req_per_s", float64(requests)/total, requests)
	for _, t := range []struct {
		name, class string
		pct         float64
	}{
		{"hot_p50_ms", classHot, 50}, {"hot_p99_ms", classHot, 99},
		{"cold_p90_ms", classCold, 90}, {"upload_p90_ms", classUpload, 90},
	} {
		v, pct, beyond, ok := tail(lat[t.class], t.pct)
		if !ok {
			return fmt.Errorf("%s: only %d %s samples", t.name, len(lat[t.class]), t.class)
		}
		rec.set(t.name, v, len(lat[t.class]))
		m := rec.Metrics[t.name]
		m.Percentile, m.Beyond = pct, beyond
		rec.Metrics[t.name] = m
	}
	return nil
}
