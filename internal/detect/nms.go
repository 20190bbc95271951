package detect

import (
	"sort"

	"sov/internal/nn"
)

// BBox is an axis-aligned detection box in normalized image coordinates.
type BBox struct {
	X0, Y0, X1, Y1 float32
	Score          float32
	Class          int
}

// Area returns the box area (0 for degenerate boxes).
func (b BBox) Area() float32 {
	w := b.X1 - b.X0
	h := b.Y1 - b.Y0
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// IoU returns the intersection-over-union of two boxes.
func IoU(a, b BBox) float32 {
	x0 := maxf(a.X0, b.X0)
	y0 := maxf(a.Y0, b.Y0)
	x1 := minf(a.X1, b.X1)
	y1 := minf(a.Y1, b.Y1)
	iw := x1 - x0
	ih := y1 - y0
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// decodeBox scores one grid cell: score = objectness × best class score.
func decodeBox(c nn.GridBox) BBox {
	bestC, bestS := 0, float32(0)
	for i, s := range c.ClassScores {
		if s > bestS {
			bestS = s
			bestC = i
		}
	}
	return BBox{
		X0:    clamp01(c.CX - c.W/2),
		Y0:    clamp01(c.CY - c.H/2),
		X1:    clamp01(c.CX + c.W/2),
		Y1:    clamp01(c.CY + c.H/2),
		Score: c.Objectness * bestS,
		Class: bestC,
	}
}

// DecodeGrid converts raw YOLO-grid cells into boxes above the objectness
// threshold, with score = objectness × best class score, in cell order.
func DecodeGrid(cells []nn.GridBox, objThreshold float32) []BBox {
	return DecodeGridInto(make([]BBox, 0, 16), cells, objThreshold)
}

// DecodeGridInto appends the decoded boxes to dst (reusing its capacity)
// and returns it — the zero-allocation variant of DecodeGrid for a
// recycled per-frame buffer. Output order matches DecodeGrid exactly.
func DecodeGridInto(dst []BBox, cells []nn.GridBox, objThreshold float32) []BBox {
	for _, c := range cells {
		if c.Objectness < objThreshold {
			continue
		}
		dst = append(dst, decodeBox(c))
	}
	return dst
}

// NMS performs class-aware greedy non-maximum suppression: boxes are taken
// in descending score order; a box is suppressed when it overlaps an
// already-kept box of the same class by more than iouThreshold.
func NMS(boxes []BBox, iouThreshold float32) []BBox {
	sorted := make([]BBox, len(boxes))
	copy(sorted, boxes)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	var kept []BBox
	for _, b := range sorted {
		ok := true
		for _, k := range kept {
			if k.Class == b.Class && IoU(k, b) > iouThreshold {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, b)
		}
	}
	return kept
}

// NMSInto is the reusing variant of NMS: kept boxes append to dst and the
// score-ordering pass borrows *scratch (both grown as needed and handed
// back). The sort is an insertion sort — stable, like NMS's
// sort.SliceStable, so the output is byte-identical — and allocation-free
// once the scratch has warmed to the working-set size.
func NMSInto(dst, boxes []BBox, iouThreshold float32, scratch *[]BBox) []BBox {
	sorted := append((*scratch)[:0], boxes...)
	*scratch = sorted
	for i := 1; i < len(sorted); i++ {
		b := sorted[i]
		j := i
		for j > 0 && sorted[j-1].Score < b.Score {
			sorted[j] = sorted[j-1]
			j--
		}
		sorted[j] = b
	}
	kept := dst
	for _, b := range sorted {
		ok := true
		for _, k := range kept {
			if k.Class == b.Class && IoU(k, b) > iouThreshold {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, b)
		}
	}
	return kept
}

// RunCNN executes the full DNN detection path — forward pass, grid decode,
// NMS — returning final boxes. This is the compute-substrate counterpart of
// the oracle-noise Detector: it exercises the real math, while Detector
// models field accuracy.
func RunCNN(model *nn.YOLOHead, input *nn.Tensor, objThreshold, iouThreshold float32) []BBox {
	cells := model.Infer(input)
	return NMS(DecodeGrid(cells, objThreshold), iouThreshold)
}
