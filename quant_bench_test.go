// Quantization speedup harness (DESIGN.md §8): every fixed-point kernel is
// benchmarked against its float32 counterpart on identical inputs so
// `go test -bench=BenchmarkQuantSpeedup` regenerates the int8-vs-float
// record wholesale (scripts/bench.sh quant distills it into
// BENCH_quant.json). The fused conv and FC kernels are the headline: the
// ISSUE floor is >=1.5x over float, and platform.QuantSpeedup documents the
// modeled operating-point ratio those numbers back.
package sov

import (
	"math/rand"
	"testing"

	"sov/internal/detect"
	"sov/internal/isp"
	"sov/internal/nn"
	"sov/internal/vision"
)

// quantBenchConv builds a float conv and its calibrated int8 twin over a
// perception-sized activation (16ch 48x64 -> 32ch, 3x3 stride 1).
func quantBenchConv() (*nn.Conv2D, *nn.QConv2D, *nn.Tensor) {
	rng := rand.New(rand.NewSource(11))
	conv := nn.NewConv2D(16, 32, 3, 1, 1, true, rng)
	in := nn.NewTensor(16, 48, 64)
	for i := range in.Data {
		in.Data[i] = float32(i%13)/13 - 0.4
	}
	out := conv.Forward(in)
	lo, hi := out.Data[0], out.Data[0]
	for _, v := range out.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	qc := nn.NewQConv2D(conv, nn.ChooseQuantParams(-0.4, 0.6), nn.ChooseQuantParams(lo, hi))
	return conv, qc, in
}

// quantBenchFC mirrors quantBenchConv for the fully-connected kernel
// (256 -> 128 with fused ReLU).
func quantBenchFC() (*nn.FC, *nn.QFC, *nn.Tensor) {
	rng := rand.New(rand.NewSource(12))
	fc := nn.NewFC(256, 128, true, rng)
	in := nn.NewTensor(256, 1, 1)
	for i := range in.Data {
		in.Data[i] = float32(i%17)/17 - 0.3
	}
	out := fc.Forward(in)
	lo, hi := out.Data[0], out.Data[0]
	for _, v := range out.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	qf := nn.NewQFC(fc, nn.ChooseQuantParams(-0.3, 0.7), nn.ChooseQuantParams(lo, hi))
	return fc, qf, in
}

// BenchmarkQuantSpeedup pairs each quantized kernel with its float32
// counterpart; the per-kernel speedups come from dividing the paired
// ns/op figures (scripts/bench.sh quant automates this).
func BenchmarkQuantSpeedup(b *testing.B) {
	b.Run("conv/float32", func(b *testing.B) {
		conv, _, in := quantBenchConv()
		oc, oh, ow := conv.OutShape(in.C, in.H, in.W)
		out := nn.NewTensor(oc, oh, ow)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv.ForwardInto(in, out)
		}
	})
	b.Run("conv/int8", func(b *testing.B) {
		_, qc, in := quantBenchConv()
		qin := nn.NewQTensor(in.C, in.H, in.W, qc.InP)
		nn.QuantizeTensorInto(qin, in)
		oc, oh, ow := qc.OutShape(in.C, in.H, in.W)
		qout := nn.NewQTensor(oc, oh, ow, qc.OutParams())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qc.ForwardInto(qin, qout)
		}
	})
	b.Run("fc/float32", func(b *testing.B) {
		fc, _, in := quantBenchFC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fc.Forward(in)
		}
	})
	b.Run("fc/int8", func(b *testing.B) {
		_, qf, in := quantBenchFC()
		qin := nn.NewQTensor(in.C, 1, 1, qf.InP)
		nn.QuantizeTensorInto(qin, in)
		qout := nn.NewQTensor(qf.Out, 1, 1, qf.OutParams())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qf.ForwardInto(qin, qout)
		}
	})
	b.Run("isp/float32", func(b *testing.B) {
		left, _ := benchStereoPair(256, 192)
		out := vision.NewImage(left.W, left.H)
		blur := vision.NewImage(left.W, left.H)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			isp.ProcessInto(out, blur, left)
		}
	})
	b.Run("isp/int8", func(b *testing.B) {
		left, _ := benchStereoPair(256, 192)
		q := isp.Quantized()
		in := vision.QuantizeImage(left)
		out := vision.NewQImage(in.W, in.H)
		blur := vision.NewQImage(in.W, in.H)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.ProcessInto(out, blur, in)
		}
	})
	b.Run("stereo/float32", func(b *testing.B) {
		left, right := benchStereoPair(128, 96)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vision.BlockMatch(left, right, 12, 3)
		}
	})
	b.Run("stereo/int8", func(b *testing.B) {
		leftF, rightF := benchStereoPair(128, 96)
		left, right := vision.QuantizeImage(leftF), vision.QuantizeImage(rightF)
		var m vision.DisparityMap
		var s vision.StereoScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vision.BlockMatchQuantInto(&m, left, right, 12, 3, &s)
		}
	})
	b.Run("detect-e2e/float32", func(b *testing.B) {
		model := nn.NewTinyYOLO(56, 72, 3, 11)
		in := nn.NewTensor(1, 56, 72)
		for i := range in.Data {
			in.Data[i] = float32(i%11) / 11
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			detect.RunCNN(model, in, 0.35, 0.5)
		}
	})
	b.Run("detect-e2e/int8", func(b *testing.B) {
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			boxes = detect.RunQuantCNNInto(boxes, qm, in, 0.35, 0.5, &s)
		}
	})
	b.Run("detect-batch4/int8", func(b *testing.B) {
		model := nn.NewTinyYOLO(56, 72, 3, 11)
		calib := nn.NewTensor(1, 56, 72)
		for i := range calib.Data {
			calib.Data[i] = float32(i%7) / 7
		}
		qm := nn.QuantizeYOLO(model, calib)
		inputs := make([]*nn.Tensor, 4)
		for cam := range inputs {
			ti := nn.NewTensor(1, 56, 72)
			for i := range ti.Data {
				ti.Data[i] = float32((i*(cam+3))%11) / 11
			}
			inputs[cam] = ti
		}
		var s detect.QuantDetectScratch
		var out [][]detect.BBox
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = detect.RunQuantCNNBatch(out, qm, inputs, 0.35, 0.5, &s)
		}
	})
}
