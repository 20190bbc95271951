package nn

// Batched multi-camera inference (DESIGN.md §10). A vehicle's four fisheye
// cameras run the same quantized network every cycle; forwarding them
// image-major re-streams every layer's weight panels per camera, while
// forwarding layer-major walks the batch inside each layer so the packed
// GEMM B panels and QFC pair words stay cache-resident across all images.
// The per-image arithmetic is untouched — batched outputs are byte-identical
// to running each image alone, for any worker count.

// ForwardBatchPooled runs the stack over a batch layer-major: every layer
// forwards all images before the next layer starts, so one weight-panel
// traversal's cache footprint serves the whole batch. Intermediate
// activations borrow from the tensor pools; returned tensors are pooled
// (release with PutQTensor) unless the stack is empty, in which case the
// inputs come back unchanged. dst is reused as the batch slot array
// (pass the previous cycle's slice to avoid growing it).
//
//sov:hotpath
func (n *QNetwork) ForwardBatchPooled(dst []*QTensor, ins []*QTensor) []*QTensor {
	dst = append(dst[:0], ins...)
	for _, l := range n.Layers {
		for i, cur := range dst {
			c, h, w := l.OutShape(cur.C, cur.H, cur.W)
			out := GetQTensor(c, h, w, l.OutParams())
			l.ForwardInto(cur, out)
			if cur != ins[i] {
				PutQTensor(cur)
			}
			dst[i] = out
		}
	}
	return dst
}

// ForwardRawBatch is the batched ForwardRaw: it quantizes each input, runs
// the backbone and head layer-major across the batch, and returns one raw
// int8 grid tensor per image (pooled — release each with PutQTensor). dst
// is reused as the batch slot array. Outputs are byte-identical to calling
// ForwardRaw per image.
//
//sov:hotpath
func (y *QYOLOHead) ForwardRawBatch(dst []*QTensor, ins []*Tensor) []*QTensor {
	dst = dst[:0]
	for _, in := range ins {
		qin := GetQTensor(in.C, in.H, in.W, y.Backbone.InParams)
		QuantizeTensorInto(qin, in)
		dst = append(dst, qin)
	}
	for _, l := range y.Backbone.Layers {
		for i, cur := range dst {
			c, h, w := l.OutShape(cur.C, cur.H, cur.W)
			out := GetQTensor(c, h, w, l.OutParams())
			l.ForwardInto(cur, out)
			PutQTensor(cur)
			dst[i] = out
		}
	}
	for i, feat := range dst {
		oc, oh, ow := y.Head.OutShape(feat.C, feat.H, feat.W)
		raw := GetQTensor(oc, oh, ow, y.Head.OutParams())
		y.Head.ForwardInto(feat, raw)
		PutQTensor(feat)
		dst[i] = raw
	}
	return dst
}
