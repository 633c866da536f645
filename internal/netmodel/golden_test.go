package netmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

// resultGoldenPath holds every Result field of a pinned grid, captured on
// the per-pair route walk before the per-topology flow kernels replaced
// it; TestResultGolden pins every later kernel to it. encoding/json
// round-trips float64 exactly, so the comparison is bit-for-bit.
var resultGoldenPath = filepath.Join("testdata", "result_golden.json")

// goldenResult is Result with LinkBytes folded into a SHA-256 of its
// little-endian encoding, so the file stays small while still pinning
// every per-link load.
type goldenResult struct {
	Name                string                         `json:"name"`
	Topology            string                         `json:"topology"`
	PacketHops          uint64                         `json:"packet_hops"`
	Packets             uint64                         `json:"packets"`
	Messages            uint64                         `json:"messages"`
	InterNodeBytes      uint64                         `json:"inter_node_bytes"`
	IntraNodeBytes      uint64                         `json:"intra_node_bytes"`
	AvgHops             float64                        `json:"avg_hops"`
	LinkBytesSHA256     string                         `json:"link_bytes_sha256"`
	Links               int                            `json:"links"`
	UsedLinks           int                            `json:"used_links"`
	MaxLinkBytes        uint64                         `json:"max_link_bytes"`
	MinUsedLinkBytes    uint64                         `json:"min_used_link_bytes"`
	UtilizationPct      float64                        `json:"utilization_pct"`
	UtilizationValid    bool                           `json:"utilization_valid"`
	GlobalMsgShare      float64                        `json:"global_msg_share"`
	ByteHops            uint64                         `json:"byte_hops"`
	ClassUtilizationPct map[topology.LinkClass]float64 `json:"class_utilization_pct"`
}

func linkBytesDigest(lb []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range lb {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func toGolden(name string, r *Result) goldenResult {
	return goldenResult{
		Name: name, Topology: r.Topology,
		PacketHops: r.PacketHops, Packets: r.Packets, Messages: r.Messages,
		InterNodeBytes: r.InterNodeBytes, IntraNodeBytes: r.IntraNodeBytes,
		AvgHops:         r.AvgHops,
		LinkBytesSHA256: linkBytesDigest(r.LinkBytes), Links: len(r.LinkBytes),
		UsedLinks: r.UsedLinks, MaxLinkBytes: r.MaxLinkBytes, MinUsedLinkBytes: r.MinUsedLinkBytes,
		UtilizationPct: r.UtilizationPct, UtilizationValid: r.UtilizationValid,
		GlobalMsgShare: r.GlobalMsgShare, ByteHops: r.ByteHops,
		ClassUtilizationPct: r.ClassUtilizationPct,
	}
}

// goldenTopologies builds every family the kernels dispatch on, plus the
// Valiant wrapper that must keep the generic walk, sized for ranks.
func goldenTopologies(t *testing.T, ranks int) []topology.Topology {
	t.Helper()
	sized := []func(int) (topology.Config, error){
		topology.TorusConfig,
		func(n int) (topology.Config, error) {
			c, err := topology.TorusConfig(n)
			c.Kind = "mesh"
			return c, err
		},
		topology.FatTreeConfig, topology.DragonflyConfig,
		topology.SlimFlyConfig, topology.JellyfishConfig, topology.HyperXConfig,
	}
	var out []topology.Topology
	for _, config := range sized {
		cfg, err := config(ranks)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
		if d, ok := topo.(*topology.Dragonfly); ok {
			v, err := topology.NewValiant(d, 7)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return out
}

// goldenResults runs the pinned grid: LULESH/64, MiniFE/144, BigFFT/100
// and FillBoundary/1000 (a 3-stage fat tree) on every family under the
// consecutive, random and greedy mappings, plus a two-ranks-per-node
// blocked mapping so intra-node traffic is split off.
func goldenResults(t *testing.T) []goldenResult {
	t.Helper()
	var out []goldenResult
	for _, c := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"MiniFE", 144}, {"BigFFT", 100}, {"FillBoundary", 1000}} {
		app, err := workloads.Lookup(c.app)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Generate(c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range goldenTopologies(t, c.ranks) {
			cons, err := mapping.Consecutive(c.ranks, topo.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			rnd, err := mapping.Random(c.ranks, topo.Nodes(), 3)
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := mapping.Greedy(acc.Wire, topo)
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
			}{{"consecutive", cons}, {"random", rnd}, {"greedy", greedy}, {"blocked2", blocked}} {
				res, err := Run(acc.Wire, topo, mp.mp, Options{WallTime: acc.Meta.WallTime, TrackLinks: true})
				if err != nil {
					t.Fatalf("%s/%d on %s (%s): %v", c.app, c.ranks, topo.Name(), mp.name, err)
				}
				out = append(out, toGolden(fmt.Sprintf("%s/%d %s %s", c.app, c.ranks, topo.Name(), mp.name), res))
			}
		}
	}
	return out
}

// Run's outputs are pinned bit for bit: every Result field must
// reproduce the committed golden records exactly, so flow-kernel
// rewrites cannot drift the numbers.
func TestResultGolden(t *testing.T) {
	raw, err := os.ReadFile(resultGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip the fresh records through JSON too, so both sides have
	// the same representation.
	enc, err := json.Marshal(goldenResults(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenResult
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
