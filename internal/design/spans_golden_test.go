package design

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netloc/internal/core"
	"netloc/internal/obs"
	"netloc/internal/workloads"
)

// spanGoldenPath pins, per pipeline entry point, which stage spans a run
// records and the work counts they carry. The counts are the totals the
// service's /metrics pipeline counters fold from a run's span tree, so a
// refactor of the stage plumbing that moves one of them shows here.
var spanGoldenPath = filepath.Join("testdata", "span_golden.json")

// spanGolden is one entry point's span record: the multiset of
// "name label" pairs over the whole tree, and the per-key count totals.
type spanGolden struct {
	Spans  map[string]int   `json:"spans"`
	Counts map[string]int64 `json:"counts"`
}

func foldSpans(d obs.SpanData) spanGolden {
	g := spanGolden{Spans: map[string]int{}, Counts: map[string]int64{}}
	var walk func(obs.SpanData, bool)
	walk = func(s obs.SpanData, root bool) {
		if !root {
			g.Spans[s.Name+" "+s.Label]++
		}
		for k, v := range s.Counts {
			g.Counts[k] += v
		}
		for _, c := range s.Children {
			walk(c, false)
		}
	}
	walk(d, true)
	return g
}

// TestStageSpansDeterministic runs every pipeline entry point
// sequentially on small inputs under a span and compares the folded span
// tree with the golden.
func TestStageSpansDeterministic(t *testing.T) {
	amg8, err := workloads.Lookup("AMG")
	if err != nil {
		t.Fatal(err)
	}
	tr8, err := amg8.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func(core.Options) error
	}{
		{"AnalyzeApp", func(o core.Options) error {
			_, err := core.AnalyzeApp("LULESH", 64, o)
			return err
		}},
		{"AnalyzeAppOn", func(o core.Options) error {
			_, err := core.AnalyzeAppOn("LULESH", 64, "hyperx", core.MappingGreedy, o)
			return err
		}},
		{"AnalyzeAppOnAll", func(o core.Options) error {
			_, err := core.AnalyzeAppOn("AMG", 27, "", "", o)
			return err
		}},
		{"AnalyzeTrace", func(o core.Options) error {
			_, err := core.AnalyzeTrace(tr8, o)
			return err
		}},
		{"Table1", func(o core.Options) error {
			o.MaxRanks = 27
			_, err := core.Table1(o)
			return err
		}},
		{"Table3", func(o core.Options) error {
			o.MaxRanks = 27
			_, err := core.Table3(o)
			return err
		}},
		{"Table4", func(o core.Options) error {
			o.MaxRanks = 64
			_, err := core.Table4(o)
			return err
		}},
		{"Figure3", func(o core.Options) error {
			o.MaxRanks = 27
			_, err := core.Figure3(o)
			return err
		}},
		{"Figure4", func(o core.Options) error {
			o.MaxRanks = 27
			_, err := core.Figure4("AMG", o)
			return err
		}},
		{"Figure5", func(o core.Options) error {
			o.MaxRanks = 27
			_, err := core.Figure5(18, o)
			return err
		}},
		{"SimTable", func(o core.Options) error {
			_, err := core.SimTable([]core.WorkloadRef{{App: "AMG", Ranks: 27}}, o)
			return err
		}},
		{"CongestionTable", func(o core.Options) error {
			_, err := core.CongestionTable([]core.WorkloadRef{{App: "AMG", Ranks: 8}}, nil, nil, 0, o)
			return err
		}},
		{"DesignSearch", func(o core.Options) error {
			_, err := Search(Request{
				App: "LULESH", Ranks: 64, Families: []string{"torus", "fattree"},
				Constraints: Constraints{MaxCandidates: 2},
			}, o)
			return err
		}},
	}
	got := map[string]spanGolden{}
	for _, e := range entries {
		tracer := obs.NewTracer(1)
		root := tracer.StartRun(e.name)
		if err := e.run(core.Options{Parallelism: 1, Span: root}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		root.End()
		got[e.name] = foldSpans(tracer.Runs()[0].Root)
	}
	b, err := os.ReadFile(spanGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]spanGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !reflect.DeepEqual(got[e.name], want[e.name]) {
			g, _ := json.MarshalIndent(got[e.name], "", "  ")
			t.Errorf("%s: span record differs from %s; got\n%s", e.name, spanGoldenPath, g)
		}
	}
	if len(want) != len(entries) {
		t.Errorf("golden has %d entries, test runs %d", len(want), len(entries))
	}
}
