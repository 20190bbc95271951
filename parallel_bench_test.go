// Parallel-substrate speedup benchmarks: every kernel that keeps a fan-out
// (EXPERIMENTS.md, "Fan-out audit") runs the identical workload at workers=1
// and workers=max, so `go test -bench=ParallelSpeedup` reports the scaling of
// each surviving call site on the host machine. Outputs are byte-identical
// across worker counts (see parallel_determinism_test.go); only the wall
// clock should move. The fleet's two fan-outs have BenchmarkFleetThroughput.
package sov

import (
	"math/rand"
	"runtime"
	"testing"

	"sov/internal/mathx"
	"sov/internal/nn"
	"sov/internal/parallel"
	"sov/internal/pointcloud"
	"sov/internal/sim"
	"sov/internal/vision"
)

// benchAtWorkerCounts runs the body once with a single worker and once with
// every available CPU. Sub-benchmark names are fixed (not the CPU count) so
// result lines diff cleanly across machines.
func benchAtWorkerCounts(b *testing.B, body func(b *testing.B)) {
	for _, w := range []struct {
		name string
		n    int
	}{
		{"workers=1", 1},
		{"workers=max", runtime.NumCPU()},
	} {
		b.Run(w.name, func(b *testing.B) {
			prev := parallel.SetWorkers(w.n)
			defer parallel.SetWorkers(prev)
			b.ReportAllocs()
			body(b)
		})
	}
}

func benchStereoPair(w, h int) (*vision.Image, *vision.Image) {
	intr := vision.DefaultIntrinsics()
	intr.W, intr.H = w, h
	intr.Cx, intr.Cy = float64(w)/2, float64(h)/2
	rig := vision.StereoRig{Intr: intr, Baseline: 0.12}
	scene := vision.Scene{Background: 2, BgDepth: 25, Boxes: []vision.Box{
		{X: -1.5, Y: 0, Z: 6, W: 1.5, H: 1.5, Texture: 7},
		{X: 1.2, Y: 0.2, Z: 9, W: 2, H: 1.2, Texture: 19},
	}}
	return scene.RenderStereo(rig)
}

func BenchmarkParallelSpeedupSGM(b *testing.B) {
	left, right := benchStereoPair(256, 192)
	cfg := vision.DefaultSGMConfig()
	cfg.MaxDisp = 32
	benchAtWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vision.SGM(left, right, cfg)
		}
	})
}

func BenchmarkParallelSpeedupBlockMatch(b *testing.B) {
	left, right := benchStereoPair(192, 144)
	benchAtWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vision.BlockMatch(left, right, 24, 3)
		}
	})
}

// BenchmarkParallelSpeedupSupportPointStereo covers the sparse support grid
// and the dense banded pass, float and int8 (the int8 sparse grid is serial).
func BenchmarkParallelSpeedupSupportPointStereo(b *testing.B) {
	left, right := benchStereoPair(160, 120)
	b.Run("float32", func(b *testing.B) {
		benchAtWorkerCounts(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vision.SupportPointStereo(left, right, 12, 3, 8, 3)
			}
		})
	})
	b.Run("int8", func(b *testing.B) {
		ql, qr := vision.QuantizeImage(left), vision.QuantizeImage(right)
		var m vision.DisparityMap
		var s vision.StereoScratch
		benchAtWorkerCounts(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vision.SupportPointStereoQuantInto(&m, ql, qr, 12, 3, 8, 2, &s)
			}
		})
	})
}

func BenchmarkParallelSpeedupConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	conv := nn.NewConv2D(16, 32, 3, 1, 1, true, rng)
	in := nn.NewTensor(16, 64, 64)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	benchAtWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conv.Forward(in)
		}
	})
}

func BenchmarkParallelSpeedupFFT2D(b *testing.B) {
	const n = 256
	src := make([]complex128, n*n)
	rng := rand.New(rand.NewSource(9))
	for i := range src {
		src[i] = complex(rng.NormFloat64(), 0)
	}
	work := make([]complex128, len(src))
	benchAtWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, src)
			if err := mathx.FFT2D(work, n, n, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelSpeedupICP(b *testing.B) {
	rng := sim.NewRNG(21)
	scan := pointcloud.GenerateScan(6000, 77, rng.Fork())
	moved := scan.Transform(0.03, mathx.Vec3{X: 0.3, Y: -0.1})
	benchAtWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree := pointcloud.Build(scan, nil)
			pointcloud.Localize(tree, moved, nil, 10, 1)
		}
	})
}

func BenchmarkParallelSpeedupNormals(b *testing.B) {
	scan := pointcloud.GenerateScan(5000, 1, sim.NewRNG(21).Fork())
	tree := pointcloud.Build(scan, nil)
	benchAtWorkerCounts(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pointcloud.EstimateNormals(tree, scan, nil, 8)
		}
	})
}

// BenchmarkParallelSpeedupQuant covers the two int8 kernels that fan out at
// top level, on the BENCH_quant shapes: the im2col GEMM's column blocks and
// the block matcher's row blocks.
func BenchmarkParallelSpeedupQuant(b *testing.B) {
	b.Run("conv", func(b *testing.B) {
		_, qc, in := quantBenchConv()
		qin := nn.NewQTensor(in.C, in.H, in.W, qc.InP)
		nn.QuantizeTensorInto(qin, in)
		oc, oh, ow := qc.OutShape(in.C, in.H, in.W)
		qout := nn.NewQTensor(oc, oh, ow, qc.OutParams())
		benchAtWorkerCounts(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qc.ForwardInto(qin, qout)
			}
		})
	})
	b.Run("stereo", func(b *testing.B) {
		leftF, rightF := benchStereoPair(128, 96)
		left, right := vision.QuantizeImage(leftF), vision.QuantizeImage(rightF)
		var m vision.DisparityMap
		var s vision.StereoScratch
		benchAtWorkerCounts(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vision.BlockMatchQuantInto(&m, left, right, 12, 3, &s)
			}
		})
	})
}
