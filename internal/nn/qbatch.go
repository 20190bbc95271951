package nn

// Batched multi-camera inference (DESIGN.md §10). A vehicle's four fisheye
// cameras run the same quantized network every cycle; forwarding them
// image-major re-streams every layer's weight panels per camera, while
// forwarding layer-major walks the batch inside each layer so the packed
// GEMM B panels and QFC triple words stay cache-resident across all images.
// The per-image arithmetic is untouched — batched outputs are byte-identical
// to running each image alone, for any worker count.

// ForwardRawBatch is the batched ForwardRaw: it quantizes each input, runs
// the backbone and head layer-major across the batch, and returns one raw
// int8 grid tensor per image. Image i's input starts in buffer 1 of the
// head's pair i and layer l writes buffer l%2, so a warm batch allocates
// nothing; the results belong to the head and are valid until the next
// forward call. Outputs are byte-identical to calling ForwardRaw per image.
//
//sov:hotpath
func (y *QYOLOHead) ForwardRawBatch(ins []*Tensor) []QTensor {
	y.grow(len(ins))
	acts := y.acts[:len(ins)]
	for i, in := range ins {
		QuantizeTensorInto(acts[i][1].resize(in.C, in.H, in.W, y.Backbone.InParams), in)
	}
	for li, l := range y.Backbone.Layers {
		for i := range acts {
			cur, out := &acts[i][(li+1)%2], &acts[i][li%2]
			c, h, w := l.OutShape(cur.C, cur.H, cur.W)
			l.ForwardInto(cur, out.resize(c, h, w, l.OutParams()))
		}
	}
	feat := (len(y.Backbone.Layers) + 1) % 2
	for i := range acts {
		y.forwardHead(&acts[i][feat], &y.raws[i])
	}
	return y.raws[:len(ins)]
}
