package detect

import (
	"math"
	"testing"

	"sov/internal/nn"
	"sov/internal/parallel"
)

func quantTestModel() (*nn.YOLOHead, *nn.QYOLOHead, *nn.Tensor) {
	model := nn.NewTinyYOLO(56, 72, 3, 11)
	calib := nn.NewTensor(1, 56, 72)
	for i := range calib.Data {
		calib.Data[i] = float32(i%7) / 7
	}
	in := nn.NewTensor(1, 56, 72)
	for i := range in.Data {
		in.Data[i] = float32(i%11) / 11
	}
	return model, nn.QuantizeYOLO(model, calib), in
}

// TestDecodeQuantMatchesCellDecode: the fused code-domain decode must be
// byte-identical to running the quantized inference through the generic
// GridBox decode — both read the same int8 codes through the same table.
func TestDecodeQuantMatchesCellDecode(t *testing.T) {
	_, qy, in := quantTestModel()
	const thr = 0.35
	cells := qy.Infer(in)
	want := DecodeGrid(cells, thr)

	raw := qy.ForwardRaw(in)
	got := DecodeQuantGridInto(nil, raw, qy.Classes, qy.LUT(), thr)
	nn.PutQTensor(raw)

	if len(got) != len(want) {
		t.Fatalf("box count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("box %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestDecodeQuantTracksFloatDecode decodes every cell (threshold 0) in both
// the float and fixed-point paths and checks scores and box coordinates stay
// within the detection accuracy budget (DESIGN.md §8).
func TestDecodeQuantTracksFloatDecode(t *testing.T) {
	model, qy, in := quantTestModel()
	ref := DecodeGrid(model.Infer(in), 0)

	raw := qy.ForwardRaw(in)
	got := DecodeQuantGridInto(nil, raw, qy.Classes, qy.LUT(), 0)
	nn.PutQTensor(raw)

	if len(got) != len(ref) {
		t.Fatalf("cell count %d != %d", len(got), len(ref))
	}
	for i := range ref {
		if d := math.Abs(float64(got[i].Score - ref[i].Score)); d > 0.08 {
			t.Fatalf("cell %d score off by %g", i, d)
		}
		for _, pair := range [][2]float32{{got[i].X0, ref[i].X0}, {got[i].Y0, ref[i].Y0}, {got[i].X1, ref[i].X1}, {got[i].Y1, ref[i].Y1}} {
			if d := math.Abs(float64(pair[0] - pair[1])); d > 0.05 {
				t.Fatalf("cell %d coordinate off by %g", i, d)
			}
		}
	}
}

// TestRunQuantCNNEndToEnd mirrors TestRunCNNEndToEnd on the fixed-point path.
func TestRunQuantCNNEndToEnd(t *testing.T) {
	_, qy, in := quantTestModel()
	a := RunQuantCNN(qy, in, 0.3, 0.5)
	b := RunQuantCNN(qy, in, 0.3, 0.5)
	if len(a) != len(b) {
		t.Fatal("non-deterministic quantized CNN path")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic quantized CNN path")
		}
		if a[i].Score < 0 || a[i].Score > 1 {
			t.Fatalf("score out of range: %v", a[i].Score)
		}
	}
	strict := RunQuantCNN(qy, in, 0.9, 0.5)
	if len(strict) > len(a) {
		t.Fatal("stricter threshold produced more boxes")
	}
}

// TestRunQuantCNNIntoMatches: the allocation-free runner must be
// byte-identical to RunQuantCNN, including across reuses of the same
// scratch and destination.
func TestRunQuantCNNIntoMatches(t *testing.T) {
	_, qy, in := quantTestModel()
	want := RunQuantCNN(qy, in, 0.3, 0.5)
	var s QuantDetectScratch
	var dst []BBox
	for pass := 0; pass < 3; pass++ {
		dst = RunQuantCNNInto(dst, qy, in, 0.3, 0.5, &s)
		if len(dst) != len(want) {
			t.Fatalf("pass %d: box count %d != %d", pass, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("pass %d box %d: %+v != %+v", pass, i, dst[i], want[i])
			}
		}
	}
}

// TestRunQuantCNNBatchMatchesSingle: the layer-major batched runner must
// produce, per camera, exactly the boxes the single-image runner produces —
// for any worker count.
func TestRunQuantCNNBatchMatchesSingle(t *testing.T) {
	_, qy, in := quantTestModel()
	inputs := make([]*nn.Tensor, 4)
	for cam := range inputs {
		ti := nn.NewTensor(1, 56, 72)
		for i := range ti.Data {
			ti.Data[i] = float32((i*(cam+3))%13) / 13
		}
		inputs[cam] = ti
	}
	inputs[1] = in
	want := make([][]BBox, len(inputs))
	for cam, ti := range inputs {
		want[cam] = RunQuantCNN(qy, ti, 0.3, 0.5)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, workers := range []int{1, 8} {
		parallel.SetWorkers(workers)
		var s QuantDetectScratch
		var out [][]BBox
		for pass := 0; pass < 2; pass++ { // second pass reuses all scratch
			out = RunQuantCNNBatch(out, qy, inputs, 0.3, 0.5, &s)
			if len(out) != len(inputs) {
				t.Fatalf("workers %d: batch size %d != %d", workers, len(out), len(inputs))
			}
			for cam := range inputs {
				if len(out[cam]) != len(want[cam]) {
					t.Fatalf("workers %d cam %d: box count %d != %d", workers, cam, len(out[cam]), len(want[cam]))
				}
				for i := range want[cam] {
					if out[cam][i] != want[cam][i] {
						t.Fatalf("workers %d cam %d box %d differs", workers, cam, i)
					}
				}
			}
		}
	}
}
