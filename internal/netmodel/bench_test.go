package netmodel

import (
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

func benchSetup(b *testing.B, ranks int) (*comm.Matrix, topology.Topology, *mapping.Mapping) {
	b.Helper()
	m, err := comm.NewMatrix(ranks, 0)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for k := 1; k <= 26; k++ {
			if err := m.Add(r, (r+k*5)%ranks, 65536); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg, err := topology.TorusConfig(ranks)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mapping.Consecutive(ranks, topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	return m, topo, mp
}

func BenchmarkRunHopsOnly(b *testing.B) {
	m, topo, mp := benchSetup(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, topo, mp, Options{WallTime: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWithLinkTracking(b *testing.B) {
	m, topo, mp := benchSetup(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, topo, mp, Options{WallTime: 1, TrackLinks: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiCoreSeries(b *testing.B) {
	m, _, _ := benchSetup(b, 512)
	cores := []int{1, 2, 4, 8, 16, 32, 48}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultiCoreSeries(m, cores); err != nil {
			b.Fatal(err)
		}
	}
}

// runKindsMatrices builds the two traffic shapes of BenchmarkRunKinds on
// 1024 ranks: a dense all-to-all collective matrix (every ordered pair)
// and a sparse 16×8×8 periodic 6-point stencil.
func runKindsMatrices(b *testing.B) (dense, stencil *comm.Matrix) {
	b.Helper()
	const ranks = 1024
	var err error
	if dense, err = comm.NewMatrix(ranks, 0); err != nil {
		b.Fatal(err)
	}
	if stencil, err = comm.NewMatrix(ranks, 0); err != nil {
		b.Fatal(err)
	}
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			if dst != src {
				if err := dense.AddN(src, dst, 8192, 4); err != nil {
					b.Fatal(err)
				}
			}
		}
		x, y, z := src%16, (src/16)%8, src/128
		for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nx, ny, nz := (x+d[0]+16)%16, (y+d[1]+8)%8, (z+d[2]+8)%8
			if err := stencil.AddN(src, nx+16*ny+128*nz, 65536, 100); err != nil {
				b.Fatal(err)
			}
		}
	}
	return dense, stencil
}

// BenchmarkRunKinds times one link-tracking Run per topology family on a
// dense collective and a sparse stencil matrix under the consecutive
// mapping, so each family's flow kernel is measured on both extremes.
func BenchmarkRunKinds(b *testing.B) {
	dense, stencil := runKindsMatrices(b)
	for _, c := range []struct {
		kind string
		cfg  func(int) (topology.Config, error)
	}{
		{"torus", topology.TorusConfig}, {"fattree", topology.FatTreeConfig},
		{"dragonfly", topology.DragonflyConfig}, {"slimfly", topology.SlimFlyConfig},
		{"jellyfish", topology.JellyfishConfig}, {"hyperx", topology.HyperXConfig},
	} {
		cfg, err := c.cfg(dense.Ranks())
		if err != nil {
			b.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			b.Fatal(err)
		}
		mp, err := mapping.Consecutive(dense.Ranks(), topo.Nodes())
		if err != nil {
			b.Fatal(err)
		}
		for _, mc := range []struct {
			name string
			m    *comm.Matrix
		}{{"dense", dense}, {"stencil", stencil}} {
			b.Run(c.kind+"/"+mc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(mc.m, topo, mp, Options{WallTime: 1, TrackLinks: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
