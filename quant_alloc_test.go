// Steady-state allocation gate for the quantized hot path (DESIGN.md §10):
// every fixed-point kernel the perception cycle leans on must allocate
// nothing once warm on the serial path. The Into variants own all scratch;
// a regression here means a kernel started reaching for the heap per frame.
package sov

import (
	"testing"

	"sov/internal/detect"
	"sov/internal/isp"
	"sov/internal/nn"
	"sov/internal/parallel"
	"sov/internal/vision"
)

// TestQuantKernelsZeroAllocSteadyState warms each kernel, then requires
// zero allocations per run with one worker (the serial paths; a top-level
// parallel fan-out still allocates its closures), and for the batched
// detector also with four workers from inside a fan-out body, where every
// layer's own fan-out runs inline.
func TestQuantKernelsZeroAllocSteadyState(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	kernels := []struct {
		name string
		run  func()
	}{}

	// conv: perception-shaped QConv2D through the GEMM dispatcher.
	{
		_, qc, in := quantBenchConv()
		qin := nn.NewQTensor(in.C, in.H, in.W, qc.InP)
		nn.QuantizeTensorInto(qin, in)
		oc, oh, ow := qc.OutShape(in.C, in.H, in.W)
		qout := nn.NewQTensor(oc, oh, ow, qc.OutParams())
		kernels = append(kernels, struct {
			name string
			run  func()
		}{"conv", func() { qc.ForwardInto(qin, qout) }})
	}

	// fc: SWAR triple-dot QFC.
	{
		_, qf, in := quantBenchFC()
		qin := nn.NewQTensor(in.C, 1, 1, qf.InP)
		nn.QuantizeTensorInto(qin, in)
		qout := nn.NewQTensor(qf.Out, 1, 1, qf.OutParams())
		kernels = append(kernels, struct {
			name string
			run  func()
		}{"fc", func() { qf.ForwardInto(qin, qout) }})
	}

	// isp: fused fixed-point pixel pipeline.
	{
		left, _ := benchStereoPair(256, 192)
		q := isp.Quantized()
		in := vision.QuantizeImage(left)
		out := vision.NewQImage(in.W, in.H)
		blur := vision.NewQImage(in.W, in.H)
		kernels = append(kernels, struct {
			name string
			run  func()
		}{"isp", func() { q.ProcessInto(out, blur, in) }})
	}

	// stereo: SWAR block matcher into caller-owned map and scratch.
	{
		leftF, rightF := benchStereoPair(128, 96)
		left, right := vision.QuantizeImage(leftF), vision.QuantizeImage(rightF)
		var m vision.DisparityMap
		var s vision.StereoScratch
		kernels = append(kernels, struct {
			name string
			run  func()
		}{"stereo", func() { vision.BlockMatchQuantInto(&m, left, right, 12, 3, &s) }})
	}

	// detect-e2e: quantized forward, code-domain decode, NMS.
	{
		model := nn.NewTinyYOLO(56, 72, 3, 11)
		calib := nn.NewTensor(1, 56, 72)
		for i := range calib.Data {
			calib.Data[i] = float32(i%7) / 7
		}
		qm := nn.QuantizeYOLO(model, calib)
		in := nn.NewTensor(1, 56, 72)
		for i := range in.Data {
			in.Data[i] = float32(i%11) / 11
		}
		var s detect.QuantDetectScratch
		var boxes []detect.BBox
		kernels = append(kernels, struct {
			name string
			run  func()
		}{"detect-e2e", func() { boxes = detect.RunQuantCNNInto(boxes, qm, in, 0.35, 0.5, &s) }})

		// detect-batch4: the layer-major multi-camera runner shares the model.
		inputs := make([]*nn.Tensor, 4)
		for cam := range inputs {
			ti := nn.NewTensor(1, 56, 72)
			for i := range ti.Data {
				ti.Data[i] = float32((i*(cam+3))%11) / 11
			}
			inputs[cam] = ti
		}
		var bs detect.QuantDetectScratch
		var out [][]detect.BBox
		kernels = append(kernels, struct {
			name string
			run  func()
		}{"detect-batch4", func() { out = detect.RunQuantCNNBatch(out, qm, inputs, 0.35, 0.5, &bs) }})
	}

	for _, k := range kernels {
		k.run() // warm: scratch growth happens here
		k.run()
		if avg := testing.AllocsPerRun(20, k.run); avg > 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", k.name, avg)
		}
	}

	// What a fleet shard does: the batch forward called from a parallel.For
	// body at four workers. The other tile returns at once; the fan-out
	// stays in flight until this one is done.
	parallel.SetWorkers(4)
	batch := kernels[len(kernels)-1]
	var nested float64
	parallel.For(2, 1, func(start, _ int) {
		if start == 0 {
			nested = testing.AllocsPerRun(20, batch.run)
		}
	})
	if nested > 0 {
		t.Errorf("%s inside a 4-worker fan-out: %.2f allocs/op in steady state, want 0", batch.name, nested)
	}
}
