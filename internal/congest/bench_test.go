package congest

import "testing"

// BenchmarkSimulate measures one full temporal simulation per routing
// policy: LULESH at 64 ranks on its sized dragonfly, from trace
// expansion through the hotspot pass.
func BenchmarkSimulate(b *testing.B) {
	tr := genTrace(b, "LULESH", 64)
	topo := dragonfly(b, 64)
	mp := consecutive(b, 64, topo.Nodes())
	for _, policy := range Policies() {
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(tr, topo, mp, Options{Policy: policy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLatencyTolerance measures one default tolerance sweep under
// minimal routing on the same cell: one prepared replay, a base run and
// every bracketing and bisection probe.
func BenchmarkLatencyTolerance(b *testing.B) {
	tr := genTrace(b, "LULESH", 64)
	topo := dragonfly(b, 64)
	mp := consecutive(b, 64, topo.Nodes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tol, err := LatencyTolerance(tr, topo, mp, Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(tol.Probes), "probes")
		}
	}
}
