package nn

import "fmt"

// Cross-instance weight sharing (DESIGN.md §11). A fleet shard runs the
// same quantized detector for every vehicle it owns, but the quantized
// model carries per-instance scratch (zero-point-padded input buffers with
// the tap tables built for their shape, GEMM A panels, FC input packs, and
// the activation and output tensors of the network and head) that makes one
// model unsafe to forward from two goroutines at once — a tap table is
// rebuilt in place when the input shape changes. ShareClone splits the two
// concerns: the clone aliases every read-only tensor — int8 weights, biases,
// triple-dot row constants, packed GEMM B panels, FC triple words, the sigmoid
// LUT — and zeroes only the mutable scratch, which regrows privately on the
// clone's first forward. N shards therefore pay one copy of the weight
// panels (they stay cache-resident across the whole fleet batch) plus N
// scratch sets.

// ShareClone returns a QConv2D that shares the receiver's weights, biases,
// requantization constants, and packed GEMM B panels, with private scratch
// buffers. Safe to forward concurrently with the original.
func (c *QConv2D) ShareClone() *QConv2D {
	cp := *c
	cp.gemm.gemmScratch = gemmScratch{}
	return &cp
}

// ShareClone returns a QFC that shares the receiver's weights and packed
// triple words, with a private input-pack buffer. Safe to forward
// concurrently with the original.
func (f *QFC) ShareClone() *QFC {
	cp := *f
	cp.xpack = nil
	return &cp
}

// ShareClone returns a QNetwork whose weight-bearing layers are
// ShareClones of the receiver's, whose stateless layers are shared as-is,
// and whose activation buffers are its own. Unknown layer types panic:
// silently sharing a layer with hidden mutable state would be a data race,
// not a fallback.
func (n *QNetwork) ShareClone() *QNetwork {
	out := &QNetwork{Layers: make([]QLayer, len(n.Layers)), InParams: n.InParams}
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *QConv2D:
			out.Layers[i] = t.ShareClone()
		case *QFC:
			out.Layers[i] = t.ShareClone()
		case QGlobalAvgPool:
			out.Layers[i] = l
		default:
			panic(fmt.Sprintf("nn: cannot share-clone layer %s", l.Name()))
		}
	}
	return out
}

// ShareClone returns a QYOLOHead sharing the receiver's weights and
// sigmoid table, with private per-layer scratch and activation buffers. Each
// fleet shard forwards its clone concurrently with the others while all of
// them stream the same weight panels.
func (y *QYOLOHead) ShareClone() *QYOLOHead {
	cp := *y
	cp.Backbone = y.Backbone.ShareClone()
	cp.Head = y.Head.ShareClone()
	cp.acts, cp.raws = nil, nil
	return &cp
}
