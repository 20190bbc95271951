package fleet

import (
	"sov/internal/detect"
	"sov/internal/nn"
	"sov/internal/parallel"
)

// Cross-vehicle batched perception: the layer-major quantized batching of
// nn.ForwardRawBatch (every image of a batch goes through a layer before
// the next layer starts, so a layer's packed weight panels are still in
// cache for the next image) applied across vehicles instead of cameras.
// One master QYOLOHead is quantized once; each shard holds a ShareClone
// (aliased weights, private scratch) plus its own input tensors and detect
// scratch, so the shard fan-out runs every clone concurrently. The shard is
// the unit of parallelism: every fan-out a layer or the decode would issue
// by itself runs inline while the shard fan-out is in flight
// (internal/parallel), and after warmup the phase allocates nothing.

const (
	batchInH, batchInW = 32, 32
	batchClasses       = 2
	objThreshold       = 0.35
	iouThreshold       = 0.5
)

// shardNN is one shard's private perception state.
type shardNN struct {
	model   *nn.QYOLOHead
	scratch detect.QuantDetectScratch
	inputs  []*nn.Tensor
	outs    [][]detect.BBox
	units   []*unit // this shard's vehicles, ascending id
}

// initShards quantizes the master detector (calibrated on a fixed ramp,
// seeded from the fleet seed) and hands each shard a ShareClone with
// preallocated inputs sized to the shard. One forward of each clone over
// its (blank) inputs, fanned out the way a perception epoch fans out, sizes
// the clone's buffers now rather than on the first perception epoch.
func (f *Fleet) initShards() {
	y := nn.NewTinyYOLO(batchInH, batchInW, batchClasses, splitSeed(f.cfg.Seed, streamModel, 0))
	calib := nn.NewTensor(1, batchInH, batchInW)
	for i := range calib.Data {
		calib.Data[i] = float32(i%13) / 13
	}
	master := nn.QuantizeYOLO(y, calib)
	for s := 0; s < f.nShards; s++ {
		lo, hi := shardBounds(s, len(f.units), f.nShards)
		sh := &shardNN{
			model: master.ShareClone(),
			units: f.units[lo:hi],
		}
		sh.inputs = make([]*nn.Tensor, len(sh.units))
		for i := range sh.inputs {
			sh.inputs[i] = nn.NewTensor(1, batchInH, batchInW)
		}
		f.shards = append(f.shards, sh)
	}
	parallel.For(f.nShards, 1, func(start, end int) {
		for _, sh := range f.shards[start:end] {
			sh.model.ForwardRawBatch(sh.inputs)
		}
	})
}

// shardRange is the perception fan-out body: shards [start, end) fill
// their input tensors from vehicle state and run the layer-major batch.
// Shards own disjoint vehicles and private clones, so the phase is
// race-free and tiling-independent; parallel.For tiles it across the pool.
func (f *Fleet) shardRange(start, end int) {
	for s := start; s < end; s++ {
		sh := f.shards[s]
		for i, u := range sh.units {
			fillInput(sh.inputs[i].Data, u.id, f.epoch, int(u.odo*16))
		}
		sh.outs = detect.RunQuantCNNBatch(sh.outs, sh.model, sh.inputs, objThreshold, iouThreshold, &sh.scratch)
		for i, u := range sh.units {
			u.boxes = len(sh.outs[i])
		}
	}
}

// fillInput synthesizes a deterministic per-vehicle frame from (vehicle,
// epoch, odometer) via an integer mix — a stand-in for a camera capture
// that exercises the full quantized path without touching any RNG stream
// or float transcendentals.
//
//sov:hotpath
func fillInput(dst []float32, id, epoch, odo16 int) {
	h := uint32(id)*0x9e3779b9 ^ uint32(epoch)*0x85ebca6b ^ uint32(odo16)*0xc2b2ae35
	for i := range dst {
		h ^= h << 13
		h ^= h >> 17
		h ^= h << 5
		dst[i] = float32(h&0xff) / 255
	}
}
