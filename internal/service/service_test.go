package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/harness"
	"netloc/internal/obs"
	"netloc/internal/report"
	"netloc/internal/trace"
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// get fetches a path and returns the status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// getOK fetches a path and fails the test on a non-200 status.
func getOK(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	status, body := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, body)
	}
	return body
}

// metricsSnapshot fetches and decodes /metrics.
type cacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int64 `json:"entries"`
	Evictions int64 `json:"evictions"`
}

type metricsDoc struct {
	Cache     cacheCounters `json:"cache"`
	Workcache cacheCounters `json:"workcache"`
	Compute   struct {
		Executed int64 `json:"executed"`
		Deduped  int64 `json:"deduped"`
	} `json:"compute"`
	InFlight  int64                      `json:"inflight"`
	Endpoints map[string]json.RawMessage `json:"endpoints"`
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) metricsDoc {
	t.Helper()
	var doc metricsDoc
	if err := json.Unmarshal(getOK(t, ts, "/metrics"), &doc); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return doc
}

func TestHealthzAndExperimentList(t *testing.T) {
	ts := newTestServer(t, Options{})
	if body := getOK(t, ts, "/healthz"); !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz: %s", body)
	}
	var list []ExperimentInfo
	if err := json.Unmarshal(getOK(t, ts, "/v1/experiments"), &list); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range list {
		if e.Description == "" {
			t.Errorf("experiment %q has no description", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range harness.Experiments() {
		if !names[want] {
			t.Errorf("experiment %q missing from listing", want)
		}
	}
}

// TestExperimentJSONMatchesCSV is the JSON-fidelity acceptance test: the
// rows served by /v1/experiments/table3, re-rendered through the CSV
// renderer, must be byte-identical to what cmd/locality -csv produces
// for the same parameters — proving both surfaces share one structured
// encoding with no lossy marshaling in between.
func TestExperimentJSONMatchesCSV(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := getOK(t, ts, "/v1/experiments/table3?maxranks=64")

	var envelope struct {
		Experiment string           `json:"experiment"`
		Rows       []*core.Analysis `json:"rows"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Experiment != "table3" || len(envelope.Rows) == 0 {
		t.Fatalf("envelope = %q with %d rows", envelope.Experiment, len(envelope.Rows))
	}

	var fromJSON bytes.Buffer
	if err := report.Table3(&fromJSON, envelope.Rows, true); err != nil {
		t.Fatal(err)
	}
	var fromCLI bytes.Buffer
	err := harness.Run(&fromCLI, harness.Params{
		Experiment: "table3", CSV: true, Options: core.Options{MaxRanks: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromJSON.Bytes(), fromCLI.Bytes()) {
		t.Fatalf("service JSON rows diverge from CLI CSV:\n--- via JSON ---\n%s\n--- via CLI ---\n%s",
			fromJSON.Bytes(), fromCLI.Bytes())
	}
}

// TestCacheHitFasterAndCounted is the caching acceptance test: a
// repeated identical request must be served from the cache (visible in
// the /metrics counters) and at least 10x faster than the cold request.
func TestCacheHitFasterAndCounted(t *testing.T) {
	ts := newTestServer(t, Options{})
	const path = "/v1/experiments/table3?maxranks=100"

	before := metricsSnapshot(t, ts)
	coldStart := time.Now()
	cold := getOK(t, ts, path)
	coldDur := time.Since(coldStart)

	warmStart := time.Now()
	warm := getOK(t, ts, path)
	warmDur := time.Since(warmStart)

	if !bytes.Equal(cold, warm) {
		t.Fatal("cached response differs from cold response")
	}
	after := metricsSnapshot(t, ts)
	if hits := after.Cache.Hits - before.Cache.Hits; hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", hits)
	}
	if misses := after.Cache.Misses - before.Cache.Misses; misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if warmDur*10 > coldDur {
		t.Errorf("cache hit not 10x faster: cold %v vs warm %v", coldDur, warmDur)
	}
}

// TestConcurrentRequestsDeduplicated fires many parallel identical and
// distinct requests (exercising the cache and singleflight paths under
// -race) and verifies each distinct result was computed exactly once.
func TestConcurrentRequestsDeduplicated(t *testing.T) {
	ts := newTestServer(t, Options{})
	distinct := []string{
		"/v1/topologies?ranks=8",
		"/v1/topologies?ranks=27",
		"/v1/topologies?ranks=64",
	}
	const identical = "/v1/experiments/table4?maxranks=64"
	const parallelism = 8

	var wg sync.WaitGroup
	errs := make(chan error, parallelism*(len(distinct)+1))
	for i := 0; i < parallelism; i++ {
		for _, path := range append([]string{identical}, distinct...) {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
				}
			}(path)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	doc := metricsSnapshot(t, ts)
	wantComputed := int64(len(distinct) + 1)
	if doc.Compute.Executed != wantComputed {
		t.Errorf("computations = %d, want %d (one per distinct request)", doc.Compute.Executed, wantComputed)
	}
	if doc.Cache.Hits+doc.Compute.Deduped == 0 {
		t.Error("expected some requests to be served from cache or deduplicated")
	}
	if doc.InFlight != 1 { // the /metrics request itself is in flight
		t.Errorf("inflight = %d after quiescence, want 1", doc.InFlight)
	}
}

// TestAnalyzeEndpoint checks the per-workload analysis agrees with a
// direct core call for the same (app, ranks, topo, mapping) tuple.
func TestAnalyzeEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus&mapping=consecutive&coverage=0.9")
	var got AnalyzeResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.App != "LULESH" || got.Ranks != 64 || got.Topology != "torus" || got.Mapping != "consecutive" {
		t.Fatalf("envelope = %+v", got)
	}
	if got.Analysis == nil || got.Analysis.Torus == nil {
		t.Fatal("missing torus analysis")
	}
	if got.Analysis.FatTree != nil || got.Analysis.Dragonfly != nil {
		t.Error("unselected topologies present")
	}
	want, err := core.AnalyzeAppOn("LULESH", 64, "torus", "consecutive", core.Options{Coverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got.Analysis.Torus.AvgHops != want.Torus.AvgHops ||
		got.Analysis.Torus.PacketHops != want.Torus.PacketHops ||
		got.Analysis.Selectivity != want.Selectivity {
		t.Errorf("analysis diverges from direct core call:\n got %+v\nwant %+v",
			got.Analysis.Torus, want.Torus)
	}
}

func TestAnalyzeAllTopologiesAndMappings(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64")
	var got AnalyzeResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Analysis.Torus == nil || got.Analysis.FatTree == nil || got.Analysis.Dragonfly == nil {
		t.Fatal("default analyze should cover all three topologies")
	}
	// A refined mapping must not do worse than consecutive on packet hops.
	body = getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus&mapping=refined")
	var refined AnalyzeResult
	if err := json.Unmarshal(body, &refined); err != nil {
		t.Fatal(err)
	}
	if refined.Analysis.Torus.PacketHops > got.Analysis.Torus.PacketHops {
		t.Errorf("refined mapping worse than consecutive: %d > %d",
			refined.Analysis.Torus.PacketHops, got.Analysis.Torus.PacketHops)
	}
}

func TestTopologiesEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	var got TopologiesResult
	if err := json.Unmarshal(getOK(t, ts, "/v1/topologies?ranks=64"), &got); err != nil {
		t.Fatal(err)
	}
	if got.Torus.Label != "(4,4,4)" || got.Torus.Nodes != 64 {
		t.Errorf("torus = %+v", got.Torus)
	}
	if got.FatTree.Switches == 0 || got.FatTree.TerminalLinks == 0 {
		t.Errorf("fattree = %+v", got.FatTree)
	}
	if got.Dragonfly.GlobalLinks == 0 {
		t.Errorf("dragonfly = %+v", got.Dragonfly)
	}
	// The extreme-scale families size for 64 ranks, so their blocks show up.
	if got.SlimFly == nil || got.SlimFly.Label != "(5,2)" || got.SlimFly.GlobalLinks == 0 {
		t.Errorf("slimfly = %+v", got.SlimFly)
	}
	if got.Jellyfish == nil || got.Jellyfish.Nodes < 64 || got.Jellyfish.GlobalLinks == 0 {
		t.Errorf("jellyfish = %+v", got.Jellyfish)
	}
	if got.HyperX == nil || got.HyperX.Nodes < 64 || got.HyperX.LocalLinks == 0 {
		t.Errorf("hyperx = %+v", got.HyperX)
	}
}

// TestAnalyzeExtremeScaleTopo selects each family beyond the paper's
// trio through the topo parameter and checks exactly that block lands in
// the analysis.
func TestAnalyzeExtremeScaleTopo(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		topo string
		pick func(*core.Analysis) *core.TopoResult
	}{
		{"slimfly", func(a *core.Analysis) *core.TopoResult { return a.SlimFly }},
		{"jellyfish", func(a *core.Analysis) *core.TopoResult { return a.Jellyfish }},
		{"hyperx", func(a *core.Analysis) *core.TopoResult { return a.HyperX }},
	} {
		body := getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo="+tc.topo)
		var got AnalyzeResult
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		res := tc.pick(got.Analysis)
		if res == nil {
			t.Fatalf("topo=%s: missing %s block in %+v", tc.topo, tc.topo, got.Analysis)
		}
		if res.AvgHops <= 0 || res.PacketHops == 0 {
			t.Errorf("topo=%s: empty metrics %+v", tc.topo, res)
		}
		if got.Analysis.Torus != nil || got.Analysis.FatTree != nil || got.Analysis.Dragonfly != nil {
			t.Errorf("topo=%s: paper topologies present in a single-family request", tc.topo)
		}
	}
}

func TestTraceUpload(t *testing.T) {
	ts := newTestServer(t, Options{})
	tr := &trace.Trace{
		Meta: trace.Meta{App: "uploaded", Ranks: 8, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 5000},
			{Rank: 3, Op: trace.OpSend, Peer: 7, Root: -1, Bytes: 100},
		},
	}
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces/analyze", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Experiment string           `json:"experiment"`
		Rows       []*core.Analysis `json:"rows"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Experiment != "trace" || len(envelope.Rows) != 1 || envelope.Rows[0].App != "uploaded" {
		t.Fatalf("envelope = %+v", envelope)
	}

	resp, err = http.Post(ts.URL+"/v1/traces/analyze", "application/octet-stream",
		strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status = %d, want 400", resp.StatusCode)
	}
}

func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/experiments/table99", http.StatusNotFound},
		{"/v1/experiments/table2?maxranks=x", http.StatusBadRequest},
		{"/v1/experiments/table2?maxranks=-1", http.StatusBadRequest},
		{"/v1/experiments/fig1?ranks=-4", http.StatusBadRequest},
		{"/v1/experiments/fig1?rank=-1", http.StatusBadRequest},
		{"/v1/experiments/fig5?minranks=-512", http.StatusBadRequest},
		{"/v1/experiments/table2?coverage=2", http.StatusBadRequest},
		{"/v1/experiments/table2?strategy=warp", http.StatusBadRequest},
		{"/v1/analyze", http.StatusBadRequest},
		{"/v1/analyze?app=NoSuchApp&ranks=64", http.StatusNotFound},
		{"/v1/analyze?app=LULESH&ranks=0", http.StatusBadRequest},
		{"/v1/analyze?app=LULESH&ranks=64&topo=hypercube", http.StatusBadRequest},
		{"/v1/analyze?app=LULESH&ranks=64&mapping=psychic", http.StatusBadRequest},
		{"/v1/topologies", http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, body := get(t, ts, c.path); status != c.want {
			t.Errorf("GET %s: status %d, want %d (%s)", c.path, status, c.want, body)
		}
	}
	doc := metricsSnapshot(t, ts)
	var exp struct {
		Errors int64 `json:"errors"`
	}
	if err := json.Unmarshal(doc.Endpoints["experiments"], &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Errors < 4 {
		t.Errorf("experiments endpoint errors = %d, want >= 4", exp.Errors)
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := newMetricsRegistry([]string{"x"})
	em := m.endpoints["x"]
	em.observeLatency(200 * time.Microsecond)
	em.observeLatency(3 * time.Millisecond)
	em.observeLatency(2 * time.Second)
	em.observeLatency(time.Hour) // beyond the last bound: only +Inf holds it
	snap := histogramJSON(em.latency)
	if snap["count"].(int64) != 4 {
		t.Fatalf("count = %v", snap["count"])
	}
	buckets := snap["buckets"].(map[string]int64)
	if buckets["le_0.25ms"] != 1 || buckets["le_5ms"] != 2 || buckets["le_2500ms"] != 3 {
		t.Errorf("buckets = %v", buckets)
	}
	// The 5000ms bound fills the gap between 2500 and 10000.
	if buckets["le_5000ms"] != 3 || buckets["le_10000ms"] != 3 {
		t.Errorf("buckets = %v", buckets)
	}
	// The +Inf bucket is rendered and always equals the count.
	if buckets["le_+Inf"] != 4 {
		t.Errorf("le_+Inf = %d, want 4 (buckets %v)", buckets["le_+Inf"], buckets)
	}
}

// TestMetricsPrometheusFormat checks content negotiation and the
// structural validity of the text exposition output.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 32}})
	getOK(t, ts, "/v1/topologies?ranks=27")

	// Default stays JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q", ct)
	}
	if !json.Valid(body) {
		t.Fatalf("default /metrics is not JSON: %s", body)
	}

	for _, path := range []string{"/metrics?format=prom", "/metrics"} {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(path, "format=prom") {
			req.Header.Set("Accept", "text/plain;version=0.0.4")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s content type = %q", path, ct)
		}
		out := string(body)
		for _, want := range []string{
			"# TYPE netloc_http_requests_total counter",
			"# TYPE netloc_http_request_duration_ms histogram",
			`netloc_http_requests_total{endpoint="topologies"} 1`,
			`le="+Inf"`,
			"netloc_engine_tokens_capacity",
			"netloc_cache_misses_total 1",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s missing %q in:\n%s", path, want, out)
			}
		}
	}
}

// TestDebugRunsServesSpans checks the span ring endpoint: an analysis
// run appears newest-first with its nested pipeline stages.
func TestDebugRunsServesSpans(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	var doc DebugRuns
	if err := json.Unmarshal(getOK(t, ts, "/v1/debug/runs"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded < 1 || len(doc.Runs) < 1 {
		t.Fatalf("no runs recorded: %+v", doc)
	}
	run := doc.Runs[0]
	if !strings.Contains(run.Name, "analyze") {
		t.Errorf("newest run = %q, want the analyze computation", run.Name)
	}
	stages := map[string]bool{}
	var walk func(d obs.SpanData)
	walk = func(d obs.SpanData) {
		stages[d.Name] = true
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(run.Root)
	for _, stage := range []string{"generate", "accumulate", "netmodel"} {
		if !stages[stage] {
			t.Errorf("stage %q missing from run spans (got %v)", stage, stages)
		}
	}
}

// TestRequestIDAndLogging checks every response carries an X-Request-ID
// and that an attached slog logger records one line per request.
func TestRequestIDAndLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))
	ts := newTestServer(t, Options{Log: logger, Analysis: core.Options{MaxRanks: 32}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("missing X-Request-ID header")
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if id2 := resp2.Header.Get("X-Request-ID"); id2 == id {
		t.Errorf("request IDs not unique: %q twice", id)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "endpoint=healthz") || !strings.Contains(out, "status=200") {
		t.Errorf("log output missing request record:\n%s", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestPipelineCountersAbsorbed checks computation work counts flow from
// spans into the monotonic pipeline counters on /metrics.
func TestPipelineCountersAbsorbed(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	var doc struct {
		Pipeline map[string]int64 `json:"pipeline"`
	}
	if err := json.Unmarshal(getOK(t, ts, "/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Pipeline["events"] == 0 || doc.Pipeline["packets"] == 0 {
		t.Errorf("pipeline counters not absorbed: %v", doc.Pipeline)
	}
}

// TestWorkcacheMetricsExposed checks the artifact-cache counters on both
// /metrics surfaces: two analyses of the same workload under different
// topologies have distinct result-cache keys but share the generated
// trace and accumulated matrices, so the second request must land as
// workcache hits.
func TestWorkcacheMetricsExposed(t *testing.T) {
	ts := newTestServer(t, Options{})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=fattree")

	doc := metricsSnapshot(t, ts)
	if doc.Workcache.Misses == 0 {
		t.Fatalf("workcache misses = 0 after cold analyses: %+v", doc.Workcache)
	}
	if doc.Workcache.Hits == 0 {
		t.Fatalf("workcache hits = 0 after an artifact-sharing analysis: %+v", doc.Workcache)
	}
	if doc.Workcache.Entries == 0 {
		t.Fatalf("workcache entries = 0 with artifacts resident: %+v", doc.Workcache)
	}

	prom := string(getOK(t, ts, "/metrics?format=prom"))
	for _, series := range []string{
		"netloc_workcache_hits_total", "netloc_workcache_misses_total",
		"netloc_workcache_evictions_total", "netloc_workcache_entries",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("prometheus exposition missing %s", series)
		}
	}
}
