package mapping

import (
	"testing"

	"netloc/internal/topology"
)

// BenchmarkGreedyLULESH512 is the greedy mapping of one design-search
// candidate: LULESH/512's wire traffic onto the sized 3D torus.
func BenchmarkGreedyLULESH512(b *testing.B) {
	m := wireMatrix(b, "LULESH", 512)
	cfg, err := topology.TorusConfig(512)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(m, topo); err != nil {
			b.Fatal(err)
		}
	}
}
