// Determinism contract of the parallel compute substrate: every kernel that
// fans out over internal/parallel must produce byte-identical results for
// any worker count, so the calibrated figures regenerate unchanged whatever
// hardware runs them. Each test executes the same workload at workers=1 and
// workers=8 and asserts bit-exact equality.
package sov

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/detect"
	"sov/internal/isp"
	"sov/internal/mathx"
	"sov/internal/nn"
	"sov/internal/parallel"
	"sov/internal/pointcloud"
	"sov/internal/sim"
	"sov/internal/vision"
)

// atWorkers runs fn under the given worker count, restoring the previous
// configuration afterwards.
func atWorkers(n int, fn func()) {
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	fn()
}

func TestBlockStereoDeterministicAcrossWorkers(t *testing.T) {
	left, right := benchStereoPair(128, 96)
	var bm1, bm8, sp1, sp8 *vision.DisparityMap
	atWorkers(1, func() {
		bm1 = vision.BlockMatch(left, right, 16, 2)
		sp1 = vision.SupportPointStereo(left, right, 16, 2, 8, 3)
	})
	atWorkers(8, func() {
		bm8 = vision.BlockMatch(left, right, 16, 2)
		sp8 = vision.SupportPointStereo(left, right, 16, 2, 8, 3)
	})
	if !reflect.DeepEqual(bm1, bm8) {
		t.Fatal("BlockMatch disparity maps differ between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(sp1, sp8) {
		t.Fatal("SupportPointStereo disparity maps differ between workers=1 and workers=8")
	}
}

func TestConvForwardDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := nn.NewConv2D(8, 16, 3, 1, 1, true, rng)
	in := nn.NewTensor(8, 40, 40)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	var serial, par *nn.Tensor
	atWorkers(1, func() { serial = conv.Forward(in) })
	atWorkers(8, func() { par = conv.Forward(in) })
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("conv forward outputs differ between workers=1 and workers=8")
	}
}

func TestFFT2DDeterministicAcrossWorkers(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(5))
	src := make([]complex128, n*n)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	run := func(workers int) []complex128 {
		out := make([]complex128, len(src))
		copy(out, src)
		atWorkers(workers, func() {
			if err := mathx.FFT2D(out, n, n, false); err != nil {
				t.Fatal(err)
			}
		})
		return out
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("FFT2D outputs differ between workers=1 and workers=8")
	}
}

func TestICPDeterministicAcrossWorkers(t *testing.T) {
	rng := sim.NewRNG(17)
	scan := pointcloud.GenerateScan(3000, 55, rng.Fork())
	moved := scan.Transform(0.02, mathx.Vec3{X: 0.25, Y: -0.1})
	run := func(workers int) (pointcloud.ICPResult, []int, []pointcloud.Normal) {
		var res pointcloud.ICPResult
		var reuse []int
		var normals []pointcloud.Normal
		atWorkers(workers, func() {
			tree := pointcloud.Build(scan, nil)
			res = pointcloud.Localize(tree, moved, nil, 10, 1)
			reuse = append([]int(nil), tree.Reuse...)
			normals = pointcloud.EstimateNormals(tree, scan, nil, 8)
		})
		return res, reuse, normals
	}
	r1, u1, n1 := run(1)
	r8, u8, n8 := run(8)
	if r1 != r8 {
		t.Fatalf("ICP results differ: workers=1 %+v, workers=8 %+v", r1, r8)
	}
	if !reflect.DeepEqual(u1, u8) {
		t.Fatal("kd-tree reuse counters differ between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(n1, n8) {
		t.Fatal("estimated normals differ between workers=1 and workers=8")
	}
}

// TestQuantKernelsDeterministicAcrossWorkers covers the fixed-point
// perception kernels (DESIGN.md §8): the int8 NN forward pass, the quantized
// block matcher, the fixed-point ISP chain, and the code-domain detection
// decode must be bit-identical across worker counts — integer arithmetic
// makes this exact, not approximate.
func TestQuantKernelsDeterministicAcrossWorkers(t *testing.T) {
	// Quantized network + grid decode.
	y := nn.NewTinyYOLO(48, 64, 3, 21)
	calib := nn.NewTensor(1, 48, 64)
	for i := range calib.Data {
		calib.Data[i] = float32(i%13) / 13
	}
	qy := nn.QuantizeYOLO(y, calib)
	probe := nn.NewTensor(1, 48, 64)
	for i := range probe.Data {
		probe.Data[i] = float32(i%7) / 7
	}
	var codes1, codes8 []int8
	var boxes1, boxes8 []detect.BBox
	atWorkers(1, func() {
		raw := qy.ForwardRaw(probe)
		codes1 = append(codes1, raw.Data...)
		boxes1 = detect.DecodeQuantGridInto(nil, raw, qy.Classes, qy.LUT(), 0.3)
	})
	atWorkers(8, func() {
		raw := qy.ForwardRaw(probe)
		codes8 = append(codes8, raw.Data...)
		boxes8 = detect.DecodeQuantGridInto(nil, raw, qy.Classes, qy.LUT(), 0.3)
	})
	if !reflect.DeepEqual(codes1, codes8) {
		t.Fatal("quantized YOLO head output differs between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(boxes1, boxes8) {
		t.Fatal("quantized grid decode differs between workers=1 and workers=8")
	}

	// Quantized block matcher.
	leftF, rightF := benchStereoPair(128, 96)
	left, right := vision.QuantizeImage(leftF), vision.QuantizeImage(rightF)
	var bm1, bm8 vision.DisparityMap
	atWorkers(1, func() { vision.BlockMatchQuantInto(&bm1, left, right, 16, 2, &vision.StereoScratch{}) })
	atWorkers(8, func() { vision.BlockMatchQuantInto(&bm8, left, right, 16, 2, &vision.StereoScratch{}) })
	if !reflect.DeepEqual(bm1, bm8) {
		t.Fatal("BlockMatchQuantInto differs between workers=1 and workers=8")
	}

	// Fixed-point ISP chain (serial kernel, but run under both settings to
	// pin the contract alongside the others).
	qp := isp.Quantized()
	isp1, isp8 := vision.NewQImage(left.W, left.H), vision.NewQImage(left.W, left.H)
	blur := vision.NewQImage(left.W, left.H)
	atWorkers(1, func() { qp.ProcessInto(isp1, blur, left) })
	atWorkers(8, func() { qp.ProcessInto(isp8, blur, left) })
	if !reflect.DeepEqual(isp1, isp8) {
		t.Fatal("fixed-point ISP differs between workers=1 and workers=8")
	}
}

// TestCoreSimulationDeterministicAcrossWorkers drives the full SoV control
// loop on the float path, the int8 perception path and with the online
// scheduler attached, and asserts the per-cycle trace and headline report
// figures are bit-identical across worker counts. The loop itself is serial
// by construction (internal/core imports no worker pool; scripts/lint.sh
// holds that), but the packages it calls into — detect, track, vision —
// still link internal/parallel, so this is the outside check that no
// SetWorkers value, nor any other host state, reaches a trace.
func TestCoreSimulationDeterministicAcrossWorkers(t *testing.T) {
	traces := map[string]string{}
	for _, m := range []struct {
		name         string
		quant, sched bool
	}{
		{"float", false, false},
		{"quant", true, false},
		{"sched", false, true},
	} {
		t.Run(m.name, func(t *testing.T) {
			mutate := func(c *core.Config) { c.Quant, c.Sched = m.quant, m.sched }
			tr1, rep1 := cruiseWith(t, 1, mutate)
			tr8, rep8 := cruiseWith(t, 8, mutate)
			if tr1 != tr8 {
				t.Fatal("simulation traces differ between workers=1 and workers=8")
			}
			assertSameCruise(t, rep1, rep8)
			if rep1.QuantizedPerception != m.quant {
				t.Fatalf("QuantizedPerception = %v, want %v", rep1.QuantizedPerception, m.quant)
			}
			if (rep1.Sched != nil) != m.sched {
				t.Fatalf("scheduler stats recorded = %v, want %v", rep1.Sched != nil, m.sched)
			}
			traces[m.name] = tr1
		})
	}
	if q, ran := traces["quant"]; ran && q == traces["float"] {
		t.Fatal("quantized trace identical to float trace; the knob is inert")
	}
}

// cruiseWith runs the 5 s reference cruise under the given worker count,
// with mutate (when non-nil) applied to the default config, returning the
// full trace and report.
func cruiseWith(t *testing.T, workers int, mutate func(*core.Config)) (string, *core.Report) {
	t.Helper()
	var buf bytes.Buffer
	var rep *core.Report
	atWorkers(workers, func() {
		cfg := core.DefaultConfig()
		cfg.Seed = 4
		if mutate != nil {
			mutate(&cfg)
		}
		s := core.New(cfg, core.CruiseScenario(4))
		tr := core.NewTracer(&buf)
		s.AttachTracer(tr)
		rep = s.Run(5 * time.Second)
		if _, err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return buf.String(), rep
}

func assertSameCruise(t *testing.T, a, b *core.Report) {
	t.Helper()
	if a.Cycles != b.Cycles || a.CommandsDelivered != b.CommandsDelivered ||
		a.Tcomp.Mean() != b.Tcomp.Mean() || a.EndToEnd.Mean() != b.EndToEnd.Mean() ||
		a.PipelineDepth.Mean() != b.PipelineDepth.Mean() {
		t.Fatalf("simulation reports differ: cycles=%d tcomp=%v vs cycles=%d tcomp=%v",
			a.Cycles, a.Tcomp.Mean(), b.Cycles, b.Tcomp.Mean())
	}
}
