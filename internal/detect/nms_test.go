package detect

import (
	"math"
	"testing"

	"sov/internal/nn"
)

func TestIoUIdenticalBoxes(t *testing.T) {
	b := BBox{X0: 0.1, Y0: 0.1, X1: 0.3, Y1: 0.3}
	if got := IoU(b, b); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("IoU(self) = %v", got)
	}
}

func TestIoUDisjoint(t *testing.T) {
	a := BBox{X0: 0, Y0: 0, X1: 0.1, Y1: 0.1}
	b := BBox{X0: 0.5, Y0: 0.5, X1: 0.6, Y1: 0.6}
	if IoU(a, b) != 0 {
		t.Fatal("disjoint IoU != 0")
	}
}

func TestIoUKnownOverlap(t *testing.T) {
	a := BBox{X0: 0, Y0: 0, X1: 0.2, Y1: 0.2}
	b := BBox{X0: 0.1, Y0: 0, X1: 0.3, Y1: 0.2}
	// inter = 0.1*0.2 = 0.02; union = 0.04+0.04-0.02 = 0.06.
	if got := IoU(a, b); math.Abs(float64(got)-1.0/3.0) > 1e-6 {
		t.Fatalf("IoU = %v, want 1/3", got)
	}
}

func TestIoUDegenerate(t *testing.T) {
	a := BBox{X0: 0.2, Y0: 0.2, X1: 0.1, Y1: 0.1} // inverted
	b := BBox{X0: 0, Y0: 0, X1: 1, Y1: 1}
	if a.Area() != 0 || IoU(a, b) != 0 {
		t.Fatal("degenerate box should have zero area/IoU")
	}
}

func TestNMSSuppressesSameClassOverlaps(t *testing.T) {
	boxes := []BBox{
		{X0: 0.1, Y0: 0.1, X1: 0.3, Y1: 0.3, Score: 0.9, Class: 0},
		{X0: 0.11, Y0: 0.11, X1: 0.31, Y1: 0.31, Score: 0.8, Class: 0}, // duplicate
		{X0: 0.6, Y0: 0.6, X1: 0.8, Y1: 0.8, Score: 0.7, Class: 0},     // separate object
	}
	kept := NMSInto(nil, boxes, 0.5, new([]BBox))
	if len(kept) != 2 {
		t.Fatalf("kept = %d, want 2", len(kept))
	}
	if kept[0].Score != 0.9 {
		t.Fatal("highest score must survive")
	}
}

func TestNMSKeepsDifferentClasses(t *testing.T) {
	boxes := []BBox{
		{X0: 0.1, Y0: 0.1, X1: 0.3, Y1: 0.3, Score: 0.9, Class: 0},
		{X0: 0.1, Y0: 0.1, X1: 0.3, Y1: 0.3, Score: 0.8, Class: 1},
	}
	if kept := NMSInto(nil, boxes, 0.5, new([]BBox)); len(kept) != 2 {
		t.Fatalf("class-aware NMS kept %d, want 2", len(kept))
	}
}

func TestNMSEmptyAndDoesNotMutate(t *testing.T) {
	if got := NMSInto(nil, nil, 0.5, new([]BBox)); len(got) != 0 {
		t.Fatal("empty NMS")
	}
	boxes := []BBox{{Score: 0.1}, {Score: 0.9}}
	NMSInto(nil, boxes, 0.5, new([]BBox))
	if boxes[0].Score != 0.1 {
		t.Fatal("NMS mutated input order")
	}
}

func TestDecodeGridThreshold(t *testing.T) {
	cells := []nn.GridBox{
		{CX: 0.5, CY: 0.5, W: 0.2, H: 0.2, Objectness: 0.9, ClassScores: []float32{0.1, 0.8}},
		{CX: 0.2, CY: 0.2, W: 0.1, H: 0.1, Objectness: 0.1, ClassScores: []float32{0.5, 0.5}},
	}
	boxes := DecodeGrid(cells, 0.5)
	if len(boxes) != 1 {
		t.Fatalf("decoded = %d, want 1", len(boxes))
	}
	b := boxes[0]
	if b.Class != 1 {
		t.Fatalf("class = %d, want 1", b.Class)
	}
	if math.Abs(float64(b.Score)-0.9*0.8) > 1e-6 {
		t.Fatalf("score = %v", b.Score)
	}
	if math.Abs(float64(b.X0)-0.4) > 1e-6 || math.Abs(float64(b.X1)-0.6) > 1e-6 {
		t.Fatalf("box = %+v", b)
	}
}

func TestRunCNNEndToEnd(t *testing.T) {
	model := nn.NewTinyYOLO(56, 72, 3, 11)
	in := nn.NewTensor(1, 56, 72)
	for i := range in.Data {
		in.Data[i] = float32(i%7) / 7
	}
	// Untrained weights: just verify the path runs, respects thresholds,
	// and is deterministic.
	a := RunCNN(model, in, 0.3, 0.5)
	b := RunCNN(model, in, 0.3, 0.5)
	if len(a) != len(b) {
		t.Fatal("non-deterministic CNN path")
	}
	for _, box := range a {
		if box.Score < 0 || box.Score > 1 {
			t.Fatalf("score out of range: %v", box.Score)
		}
	}
	// A stricter threshold can only reduce detections.
	strict := RunCNN(model, in, 0.9, 0.5)
	if len(strict) > len(a) {
		t.Fatal("stricter threshold produced more boxes")
	}
}

func BenchmarkRunCNNFullPath(b *testing.B) {
	model := nn.NewTinyYOLO(120, 160, 4, 42)
	in := nn.NewTensor(1, 120, 160)
	for i := range in.Data {
		in.Data[i] = float32(i%13) / 13
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCNN(model, in, 0.4, 0.5)
	}
}
