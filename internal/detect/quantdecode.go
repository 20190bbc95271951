package detect

import "sov/internal/nn"

// Fixed-point detection decode (DESIGN.md §8). The quantized YOLO head hands
// over its raw int8 grid tensor; cells threshold on raw objectness codes —
// one int8 comparison — before any sigmoid table lookup, the class argmax
// runs in the code domain (the sigmoid is monotonic, so the argmax over
// codes is the argmax over scores), and only surviving cells pay for box
// assembly. No intermediate GridBox/ClassScores materialize at all.

// decodeQuantBox scores one surviving grid cell from its int8 codes.
//
//sov:hotpath
func decodeQuantBox(raw *nn.QTensor, lut *nn.SigmoidLUT, classes, gy, gx int) BBox {
	bestC := 0
	bestCode := int8(-128)
	base := (5*raw.H+gy)*raw.W + gx
	plane := raw.H * raw.W
	for c := 0; c < classes; c++ {
		if code := raw.Data[base+c*plane]; code > bestCode {
			bestCode = code
			bestC = c
		}
	}
	obj := lut.At(raw.At(0, gy, gx))
	cx := (float32(gx) + lut.At(raw.At(1, gy, gx))) / float32(raw.W)
	cy := (float32(gy) + lut.At(raw.At(2, gy, gx))) / float32(raw.H)
	w := lut.At(raw.At(3, gy, gx))
	h := lut.At(raw.At(4, gy, gx))
	return BBox{
		X0:    clamp01(cx - w/2),
		Y0:    clamp01(cy - h/2),
		X1:    clamp01(cx + w/2),
		Y1:    clamp01(cy + h/2),
		Score: obj * lut.At(bestCode),
		Class: bestC,
	}
}

// DecodeQuantGridInto appends boxes decoded from the quantized head's raw
// output tensor to dst (reusing its capacity) and returns it, in row-major
// cell order. Because both paths read the same int8 codes through the same
// table, the result is identical to decoding the dequantized cells.
//
//sov:hotpath
func DecodeQuantGridInto(dst []BBox, raw *nn.QTensor, classes int, lut *nn.SigmoidLUT, objThreshold float32) []BBox {
	thr := lut.ThresholdCode(objThreshold)
	for gy := 0; gy < raw.H; gy++ {
		row := raw.Data[gy*raw.W : (gy+1)*raw.W] // objectness plane, row gy
		for gx, code := range row {
			if code < thr {
				continue
			}
			dst = append(dst, decodeQuantBox(raw, lut, classes, gy, gx))
		}
	}
	return dst
}

// QuantDetectScratch carries the detection path's reusable buffers across
// frames: the batch tensor slots, the decoded candidate list, and the NMS
// sort scratch. The zero value is ready to use; a control loop that keeps
// one per detector allocates nothing once warm.
type QuantDetectScratch struct {
	raws   []*nn.QTensor
	boxes  []BBox
	sorted []BBox
}

// RunQuantCNNInto executes the fixed-point DNN detection path — int8
// forward pass, code-domain grid decode, NMS — returning final boxes; the
// quantized counterpart of RunCNN. Candidates, NMS scratch, and the returned
// slice's backing store all live in caller-owned buffers. dst is overwritten
// and returned re-sliced (pass the previous frame's result to reuse its
// capacity).
//
//sov:hotpath
func RunQuantCNNInto(dst []BBox, model *nn.QYOLOHead, input *nn.Tensor, objThreshold, iouThreshold float32, s *QuantDetectScratch) []BBox {
	raw := model.ForwardRaw(input)
	s.boxes = DecodeQuantGridInto(s.boxes[:0], raw, model.Classes, model.LUT(), objThreshold)
	nn.PutQTensor(raw)
	return NMSInto(dst[:0], s.boxes, iouThreshold, &s.sorted)
}

// RunQuantCNNBatch runs the detection path over a multi-camera batch with
// one layer-major forward pass (nn.ForwardRawBatch): each layer's weight
// panels are traversed while all images are in flight, so the packed panels
// stay cache-resident across the batch. out[i] receives camera i's final
// boxes (out grows to len(inputs); per-camera slices reuse their capacity).
// Each camera's boxes are byte-identical to RunQuantCNNInto on its input
// alone.
//
//sov:hotpath
func RunQuantCNNBatch(out [][]BBox, model *nn.QYOLOHead, inputs []*nn.Tensor, objThreshold, iouThreshold float32, s *QuantDetectScratch) [][]BBox {
	s.raws = model.ForwardRawBatch(s.raws, inputs)
	for len(out) < len(inputs) {
		out = append(out, nil)
	}
	out = out[:len(inputs)]
	for i, raw := range s.raws {
		s.boxes = DecodeQuantGridInto(s.boxes[:0], raw, model.Classes, model.LUT(), objThreshold)
		nn.PutQTensor(raw)
		s.raws[i] = nil
		out[i] = NMSInto(out[i][:0], s.boxes, iouThreshold, &s.sorted)
	}
	return out
}
