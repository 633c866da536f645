package simnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netloc/internal/mapping"
	"netloc/internal/topology"
)

// goldenPath holds full Stats captured on the per-call simulator (each
// Simulate expanded, sorted and routed the trace itself) before the
// prepared replay replaced it; TestStatsGoldenDeterministic pins every
// later kernel to it. encoding/json round-trips float64 exactly, so the
// comparison is bit-for-bit.
var goldenPath = filepath.Join("testdata", "stats_golden.json")

// goldenRecord is one pinned simulation.
type goldenRecord struct {
	Name  string `json:"name"`
	Stats *Stats `json:"stats"`
}

// goldenRecords runs the pinned grid: LULESH/64 and MiniFE/144 on their
// sized torus, fat tree, dragonfly, slim fly and jellyfish, each under
// the consecutive mapping and a two-ranks-per-node blocked mapping (so
// intra-node messages are skipped mid-stream).
func goldenRecords(t *testing.T) []goldenRecord {
	t.Helper()
	sized := []func(int) (topology.Config, error){
		topology.TorusConfig, topology.FatTreeConfig, topology.DragonflyConfig,
		topology.SlimFlyConfig, topology.JellyfishConfig,
	}
	var recs []goldenRecord
	for _, c := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"MiniFE", 144}} {
		tr := genTrace(t, c.app, c.ranks)
		for _, config := range sized {
			cfg, err := config(c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			blocked, err := mapping.Blocked(c.ranks, topo.Nodes(), 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, mp := range []struct {
				name string
				mp   *mapping.Mapping
			}{{"consecutive", consecutive(t, c.ranks, topo.Nodes())}, {"blocked2", blocked}} {
				st, err := Simulate(tr, topo, mp.mp, Options{})
				if err != nil {
					t.Fatalf("%s/%d on %s (%s): %v", c.app, c.ranks, topo.Name(), mp.name, err)
				}
				recs = append(recs, goldenRecord{
					Name:  fmt.Sprintf("%s/%d %s %s", c.app, c.ranks, topo.Name(), mp.name),
					Stats: st,
				})
			}
		}
	}
	return recs
}

// The simulator's outputs are pinned bit for bit: every Stats field must
// reproduce the committed golden records exactly, so kernel rewrites
// cannot drift the numbers.
func TestStatsGoldenDeterministic(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip the fresh records through JSON too, so both sides have
	// the same representation.
	enc, err := json.Marshal(goldenRecords(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenRecord
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("record %d diverged:\n got %s\nwant %s", i, g, w)
		}
	}
}
