package simnet

import (
	"testing"

	"netloc/internal/mapping"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

func BenchmarkSimulateLULESH64(b *testing.B) {
	a, err := workloads.Lookup("LULESH")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := a.Generate(64)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mapping.Consecutive(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, topo, mp, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateMiniFE144FatTree(b *testing.B) {
	a, err := workloads.Lookup("MiniFE")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := a.Generate(144)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.NewFatTree(48, 2)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mapping.Consecutive(144, topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, topo, mp, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakespanRun is one design-search candidate's replay: a
// makespan-only run of a prepared LULESH/512 trace on the sized
// dragonfly under the consecutive mapping.
func BenchmarkMakespanRun(b *testing.B) {
	tr := genTrace(b, "LULESH", 512)
	cfg, err := topology.DragonflyConfig(512)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mapping.Consecutive(512, topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	prep, err := Prepare(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Makespan(topo, mp); err != nil {
			b.Fatal(err)
		}
	}
}
