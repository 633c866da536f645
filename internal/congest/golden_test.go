package congest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netloc/internal/topology"
)

// goldenPath holds the Stats and Tolerance records pinned by
// TestStatsGoldenDeterministic. encoding/json round-trips float64
// exactly, so the comparison is bit-for-bit.
var goldenPath = filepath.Join("testdata", "stats_golden.json")

// goldenRecord is one pinned simulation or tolerance sweep.
type goldenRecord struct {
	Name      string     `json:"name"`
	Stats     *Stats     `json:"stats,omitempty"`
	Tolerance *Tolerance `json:"tolerance,omitempty"`
}

// goldenRecords runs the pinned grid: LULESH/64 and Crystal Router/100
// on a 4x4x4 torus (LULESH only), their sized fat tree and dragonfly,
// and a slim fly (q=5, p=2); every policy at two added per-hop
// latencies, plus the tolerance sweep under minimal and UGAL routing.
func goldenRecords(t *testing.T) []goldenRecord {
	t.Helper()
	type cell struct {
		app   string
		ranks int
		topos []topology.Topology
	}
	cells := []cell{
		{"LULESH", 64, []topology.Topology{torus(t, 4, 4, 4), fattree(t, 64), dragonfly(t, 64), slimfly(t, 5, 2)}},
		{"Crystal Router", 100, []topology.Topology{fattree(t, 100), dragonfly(t, 100), slimfly(t, 5, 2)}},
	}
	var recs []goldenRecord
	for _, c := range cells {
		tr := genTrace(t, c.app, c.ranks)
		for _, topo := range c.topos {
			mp := consecutive(t, c.ranks, topo.Nodes())
			for _, policy := range Policies() {
				for _, extra := range []float64{0, 3e-7} {
					st, err := Simulate(tr, topo, mp, Options{Policy: policy, ExtraHopLatency: extra})
					if err != nil {
						t.Fatalf("%s/%d on %s (%s, %g): %v", c.app, c.ranks, topo.Name(), policy, extra, err)
					}
					recs = append(recs, goldenRecord{
						Name:  fmt.Sprintf("%s/%d %s %s extra=%g", c.app, c.ranks, topo.Name(), policy, extra),
						Stats: st,
					})
				}
			}
			for _, policy := range []string{PolicyMinimal, PolicyUGAL} {
				tol, err := LatencyTolerance(tr, topo, mp, Options{Policy: policy}, 0)
				if err != nil {
					t.Fatalf("%s/%d on %s (%s) tolerance: %v", c.app, c.ranks, topo.Name(), policy, err)
				}
				recs = append(recs, goldenRecord{
					Name:      fmt.Sprintf("%s/%d %s %s tolerance", c.app, c.ranks, topo.Name(), policy),
					Tolerance: tol,
				})
			}
		}
	}
	return recs
}

// The simulator's outputs are pinned bit for bit: every Stats field and
// every tolerance sweep must reproduce the committed golden records
// exactly, so kernel rewrites cannot drift the numbers.
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
	// the same representation (nil vs empty, float encoding).
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
