package nn

import (
	"math/rand"
	"testing"

	"sov/internal/parallel"
)

// BenchmarkQConvBackends times the one conv backend per image on the four
// layers of the fleet's 32×32 detector and on the BENCH_quant shape (16ch
// 48×64 → 32ch, kd = 144, P = 3072), so a change to the A-panel fill or the
// micro-kernel shows per shape. One worker: inside a fleet shard the layer
// runs serially.
func BenchmarkQConvBackends(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, s := range []struct {
		name                    string
		inC, outC, k, pad, h, w int
	}{
		{"fleet-L0-1x8-32x32", 1, 8, 3, 1, 32, 32},
		{"fleet-L2-8x16-16x16", 8, 16, 3, 1, 16, 16},
		{"fleet-L4-16x32-8x8", 16, 32, 3, 1, 8, 8},
		{"fleet-head-32x7-4x4", 32, 7, 1, 0, 4, 4},
		{"bench-quant-16x32-48x64", 16, 32, 3, 1, 48, 64},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			conv := NewConv2D(s.inC, s.outC, s.k, 1, s.pad, true, rng)
			qc := NewQConv2D(conv, ChooseQuantParams(-0.4, 0.6), ChooseQuantParams(-0.2, 0.9))
			in := randomQInput(rng, qc, s.h, s.w)
			oc, oh, ow := qc.OutShape(in.C, in.H, in.W)
			out := NewQTensor(oc, oh, ow, qc.OutP)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qc.ForwardInto(in, out)
			}
		})
	}
}
