// Package pointcloud implements the LiDAR-processing comparator of the
// Sec. III-D case study: a kd-tree and the four Point-Cloud-Library-style
// kernels the paper measures — localization (ICP registration), recognition,
// reconstruction, and segmentation — instrumented so that every point and
// tree-node access can be routed through a cache model (internal/cachesim)
// to reproduce Fig. 4's irregular-reuse and memory-traffic results.
package pointcloud

import (
	"math"
	"sort"

	"sov/internal/mathx"
	"sov/internal/parallel"
	"sov/internal/sim"
)

// Tracker observes memory accesses; cachesim.Cache satisfies it.
type Tracker interface {
	Access(addr, size int64)
}

// address-space layout constants for the instrumented accesses.
const (
	pointBytes   = 24 // 3 float64
	nodeBytes    = 32
	pointRegion  = 0
	nodeRegion   = 1 << 30
	secondRegion = 1 << 31
)

// Cloud is a 3-D point cloud.
type Cloud struct {
	Pts []mathx.Vec3
	// Region offsets this cloud's instrumented addresses so two clouds
	// don't alias (source vs. target in registration).
	Region int64
}

// Len returns the point count.
func (c *Cloud) Len() int { return len(c.Pts) }

// access records a read of point i.
func (c *Cloud) access(tr Tracker, i int) {
	if tr != nil {
		tr.Access(c.Region+pointRegion+int64(i)*pointBytes, pointBytes)
	}
}

type kdNode struct {
	axis        int
	split       float64
	idx         int // point index at this node
	left, right int32
}

// KDTree is a k-d tree over a cloud with access instrumentation and
// per-point reuse counting (Fig. 4a).
type KDTree struct {
	cloud *Cloud
	nodes []kdNode
	root  int32
	tr    Tracker
	// Reuse counts accesses per point during queries.
	Reuse []int

	// Query scratch, owned by the tree (one caller queries it at a time):
	// the correspondence list of the current ICP iteration, and one
	// reuse-counter row per fan-out tile, merged into Reuse afterwards.
	matches   []icpMatch
	tileReuse []int
}

// reuseRows returns tiles zeroed reuse-counter rows of the tree's scratch,
// one after another.
func (t *KDTree) reuseRows(tiles int) []int {
	n := tiles * len(t.Reuse)
	if cap(t.tileReuse) < n {
		t.tileReuse = make([]int, n)
	}
	rows := t.tileReuse[:n]
	clear(rows)
	return rows
}

// mergeReuse adds every row of rows into Reuse. Integer adds are exact in
// any order, so the counts do not depend on the tiling.
func (t *KDTree) mergeReuse(rows []int) {
	for ; len(rows) > 0; rows = rows[len(t.Reuse):] {
		for i, r := range rows[:len(t.Reuse)] {
			t.Reuse[i] += r
		}
	}
}

// Build constructs a balanced kd-tree over the cloud. The tracker (may be
// nil) observes query accesses.
//
// Nodes are laid out in preorder: the subtree over m points occupies m
// contiguous slots, with the left child block immediately after the node
// and the right block after it. The layout is a pure function of the
// input, so large sibling subtrees build concurrently into disjoint slot
// ranges and the tree is byte-identical for any worker count (and to the
// previous serial append-order builder).
func Build(c *Cloud, tr Tracker) *KDTree {
	t := &KDTree{cloud: c, tr: tr, Reuse: make([]int, len(c.Pts))}
	idxs := make([]int, len(c.Pts))
	for i := range idxs {
		idxs[i] = i
	}
	t.nodes = make([]kdNode, len(c.Pts))
	if len(idxs) == 0 {
		t.root = -1
		return t
	}
	t.root = 0
	t.buildAt(idxs, 0, 0)
	return t
}

// kdParallelMin is the subtree size below which sibling builds stay serial
// (the fan-out overhead would exceed the sort work).
const kdParallelMin = 1024

// buildAt builds the subtree over idxs into slots [at, at+len(idxs)).
// Sibling calls sort disjoint sub-slices of the shared index array and
// write disjoint node ranges, so they are safe to run concurrently.
func (t *KDTree) buildAt(idxs []int, depth int, at int32) {
	if len(idxs) == 0 {
		return
	}
	axis := depth % 3
	sort.Slice(idxs, func(i, j int) bool {
		return coord(t.cloud.Pts[idxs[i]], axis) < coord(t.cloud.Pts[idxs[j]], axis)
	})
	mid := len(idxs) / 2
	left, right := int32(-1), int32(-1)
	if mid > 0 {
		left = at + 1
	}
	if mid+1 < len(idxs) {
		right = at + 1 + int32(mid)
	}
	t.nodes[at] = kdNode{
		axis:  axis,
		split: coord(t.cloud.Pts[idxs[mid]], axis),
		idx:   idxs[mid],
		left:  left,
		right: right,
	}
	if len(idxs) >= kdParallelMin {
		parallel.Do(
			func() { t.buildAt(idxs[:mid], depth+1, at+1) },
			func() { t.buildAt(idxs[mid+1:], depth+1, at+1+int32(mid)) },
		)
		return
	}
	t.buildAt(idxs[:mid], depth+1, at+1)
	t.buildAt(idxs[mid+1:], depth+1, at+1+int32(mid))
}

func coord(p mathx.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	default:
		return p.Z
	}
}

// visitInto records a node visit, crediting the reuse counter slice the
// caller owns — t.Reuse on the serial path, a per-worker scratch on
// parallel query paths (merged afterwards; integer adds are exact in any
// order).
func (t *KDTree) visitInto(n int32, reuse []int) *kdNode {
	node := &t.nodes[n]
	if t.tr != nil {
		t.tr.Access(t.cloud.Region+nodeRegion+int64(n)*nodeBytes, nodeBytes)
	}
	t.cloud.access(t.tr, node.idx)
	reuse[node.idx]++
	return node
}

func (t *KDTree) visit(n int32) *kdNode { return t.visitInto(n, t.Reuse) }

// nearestInto returns the index and squared distance of the closest point,
// crediting visits to the given reuse slice.
func (t *KDTree) nearestInto(q mathx.Vec3, reuse []int) (int, float64) {
	bestIdx, bestD2 := -1, math.Inf(1)
	t.nearest(t.root, q, &bestIdx, &bestD2, reuse)
	return bestIdx, bestD2
}

func (t *KDTree) nearest(n int32, q mathx.Vec3, bestIdx *int, bestD2 *float64, reuse []int) {
	if n < 0 {
		return
	}
	node := t.visitInto(n, reuse)
	p := t.cloud.Pts[node.idx]
	d2 := p.Sub(q).Dot(p.Sub(q))
	if d2 < *bestD2 {
		*bestD2 = d2
		*bestIdx = node.idx
	}
	diff := coord(q, node.axis) - node.split
	near, far := node.left, node.right
	if diff > 0 {
		near, far = far, near
	}
	t.nearest(near, q, bestIdx, bestD2, reuse)
	if diff*diff < *bestD2 {
		t.nearest(far, q, bestIdx, bestD2, reuse)
	}
}

// Radius returns the indices of all points within r of q.
func (t *KDTree) Radius(q mathx.Vec3, r float64) []int {
	var out []int
	t.radius(t.root, q, r*r, &out)
	return out
}

func (t *KDTree) radius(n int32, q mathx.Vec3, r2 float64, out *[]int) {
	if n < 0 {
		return
	}
	node := t.visit(n)
	p := t.cloud.Pts[node.idx]
	if d := p.Sub(q); d.Dot(d) <= r2 {
		*out = append(*out, node.idx)
	}
	diff := coord(q, node.axis) - node.split
	near, far := node.left, node.right
	if diff > 0 {
		near, far = far, near
	}
	t.radius(near, q, r2, out)
	if diff*diff <= r2 {
		t.radius(far, q, r2, out)
	}
}

// KNN returns the k nearest point indices (unsorted beyond the heap order).
func (t *KDTree) KNN(q mathx.Vec3, k int) []int {
	return t.knnInto(q, k, t.Reuse)
}

// knnInto is KNN crediting visits to the given reuse slice.
func (t *KDTree) knnInto(q mathx.Vec3, k int, reuse []int) []int {
	if k <= 0 {
		return nil
	}
	// Simple bounded max-heap over (d2, idx).
	type cand struct {
		d2  float64
		idx int
	}
	heap := make([]cand, 0, k)
	var push func(c cand)
	push = func(c cand) {
		if len(heap) < k {
			heap = append(heap, c)
			// Sift up toward max-root.
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if heap[p].d2 < heap[i].d2 {
					heap[p], heap[i] = heap[i], heap[p]
					i = p
				} else {
					break
				}
			}
			return
		}
		if c.d2 >= heap[0].d2 {
			return
		}
		heap[0] = c
		// Sift down.
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < k && heap[l].d2 > heap[big].d2 {
				big = l
			}
			if r < k && heap[r].d2 > heap[big].d2 {
				big = r
			}
			if big == i {
				break
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	var walk func(n int32)
	walk = func(n int32) {
		if n < 0 {
			return
		}
		node := t.visitInto(n, reuse)
		p := t.cloud.Pts[node.idx]
		d := p.Sub(q)
		push(cand{d2: d.Dot(d), idx: node.idx})
		diff := coord(q, node.axis) - node.split
		near, far := node.left, node.right
		if diff > 0 {
			near, far = far, near
		}
		walk(near)
		if len(heap) < k || diff*diff < heap[0].d2 {
			walk(far)
		}
	}
	walk(t.root)
	out := make([]int, len(heap))
	for i, c := range heap {
		out[i] = c.idx
	}
	return out
}

// ReuseHistogram bins the per-point access counts (Fig. 4a's x-axis is the
// reuse frequency, y the number of points with that frequency).
func (t *KDTree) ReuseHistogram(binWidth int) map[int]int {
	if binWidth <= 0 {
		binWidth = 1
	}
	h := make(map[int]int)
	for _, c := range t.Reuse {
		h[c/binWidth*binWidth]++
	}
	return h
}

// GenerateScan builds a synthetic LiDAR-like scan: a ground plane, wall
// segments, poles, and box obstacles with range-dependent density and
// noise. The variant seed changes the scene composition (Fig. 4a compares
// two different scenes captured by the same LiDAR).
func GenerateScan(n int, variant int64, rng *sim.RNG) *Cloud {
	c := &Cloud{Pts: make([]mathx.Vec3, 0, n)}
	vr := sim.NewRNG(variant)
	// Scene composition.
	nBoxes := 3 + vr.Intn(4)
	type box struct{ x, y, w, d, h float64 }
	boxes := make([]box, nBoxes)
	for i := range boxes {
		boxes[i] = box{
			x: vr.Uniform(-15, 15), y: vr.Uniform(-15, 15),
			w: vr.Uniform(0.5, 3), d: vr.Uniform(0.5, 3), h: vr.Uniform(0.5, 2.5),
		}
	}
	for len(c.Pts) < n {
		r := rng.Float64()
		var p mathx.Vec3
		switch {
		case r < 0.5:
			// Ground plane with 1/r density falloff.
			rad := 2 + 18*math.Sqrt(rng.Float64())
			ang := rng.Uniform(0, 2*math.Pi)
			p = mathx.Vec3{X: rad * math.Cos(ang), Y: rad * math.Sin(ang), Z: rng.Normal(0, 0.02)}
		case r < 0.8:
			// Box surfaces.
			b := boxes[rng.Intn(len(boxes))]
			p = mathx.Vec3{
				X: b.x + rng.Uniform(-b.w/2, b.w/2),
				Y: b.y + rng.Uniform(-b.d/2, b.d/2),
				Z: rng.Uniform(0, b.h),
			}
		default:
			// Poles.
			ang := rng.Uniform(0, 2*math.Pi)
			rad := rng.Uniform(4, 18)
			p = mathx.Vec3{
				X: rad*math.Cos(ang) + rng.Normal(0, 0.01),
				Y: rad*math.Sin(ang) + rng.Normal(0, 0.01),
				Z: rng.Uniform(0, 3),
			}
		}
		c.Pts = append(c.Pts, p)
	}
	return c
}

// Transform applies a yaw rotation and translation to every point,
// returning a new cloud (the "vehicle moved" second scan).
func (c *Cloud) Transform(yaw float64, t mathx.Vec3) *Cloud {
	out := &Cloud{Pts: make([]mathx.Vec3, len(c.Pts)), Region: secondRegion}
	s, co := math.Sin(yaw), math.Cos(yaw)
	for i, p := range c.Pts {
		out.Pts[i] = mathx.Vec3{
			X: co*p.X - s*p.Y + t.X,
			Y: s*p.X + co*p.Y + t.Y,
			Z: p.Z + t.Z,
		}
	}
	return out
}
