package pointcloud

import (
	"math"
	"sync"

	"sov/internal/mathx"
	"sov/internal/parallel"
)

// icpMatch is one accepted correspondence of an ICP iteration: the
// transformed source point, the matched target point index, and the
// squared match distance. Both ICP variants replay their floating-point
// reductions serially over the ordered match list, so the estimate is
// bit-identical to a fully serial scan.
type icpMatch struct {
	q mathx.Vec3
	j int
}

// icpParallelMin is the candidate count below which the ICP correspondence
// search stays serial: two tiles of nearest-neighbor lookups (≈ 0.1 µs each)
// do not pay for their per-tile reuse arrays — with the guard removed, 400
// candidates run 469 µs on one worker and 527 µs on two (EXPERIMENTS.md,
// "Fan-out audit"). The kNN-and-eigenvector work of EstimateNormals is 30×
// heavier per point and needs no such floor.
const icpParallelMin = 512

// icpGrain is the fixed correspondence-search tile size; it depends only
// on the input, never the worker count, so tile-ordered outputs are
// byte-identical for any parallelism.
const icpGrain = 256

// matchPool recycles the per-iteration correspondence buffers: both ICP
// variants borrow one list per iteration and return it before the next, so
// a warm localization loop allocates nothing for matches.
var matchPool parallel.SlicePool[icpMatch]

// icpMatchOne matches one source point against the target tree and appends
// the accepted correspondence to out. It is a plain function (not a closure
// over the iteration state) so the serial path stays allocation-free.
//
//sov:hotpath
func icpMatchOne(tree *KDTree, src *Cloud, tr Tracker, i int, s, c float64, trans mathx.Vec3, reuse []int, out []icpMatch) []icpMatch {
	src.access(tr, i)
	p := src.Pts[i]
	// Current transform estimate applied to the source point.
	q := mathx.Vec3{X: c*p.X - s*p.Y + trans.X, Y: s*p.X + c*p.Y + trans.Y, Z: p.Z + trans.Z}
	j, d2 := tree.nearestInto(q, reuse)
	if j < 0 || d2 > 4.0 {
		return out
	}
	return append(out, icpMatch{q: q, j: j})
}

// collectMatches gathers the accepted correspondences of one ICP iteration
// in source-point order. With no tracker attached the nearest-neighbor
// searches fan out across the worker pool: each tile owns a scratch reuse
// counter (merged afterwards — integer adds are exact in any order) and a
// tile-ordered bucket, so the returned slice matches the serial scan
// exactly. With a tracker the walk stays serial, preserving the cache
// simulator's access order. The returned slice is borrowed from matchPool;
// callers release it with matchPool.Put once consumed.
func collectMatches(tree *KDTree, src *Cloud, tr Tracker, subsample int, yaw float64, trans mathx.Vec3) []icpMatch {
	s, c := math.Sin(yaw), math.Cos(yaw)
	m := (src.Len() + subsample - 1) / subsample // candidate count
	if tr != nil || parallel.Workers() <= 1 || m < icpParallelMin {
		matches := matchPool.Get(m)[:0]
		for i := 0; i < src.Len(); i += subsample {
			matches = icpMatchOne(tree, src, tr, i, s, c, trans, tree.Reuse, matches)
		}
		return matches
	}
	buckets := make([][]icpMatch, parallel.Tiles(m, icpGrain))
	var mu sync.Mutex
	parallel.ForTiled(m, icpGrain, func(tile, k0, k1 int) {
		reuse := parallel.GetIntsZeroed(tree.cloud.Len())
		out := make([]icpMatch, 0, k1-k0)
		for k := k0; k < k1; k++ {
			out = icpMatchOne(tree, src, tr, k*subsample, s, c, trans, reuse, out)
		}
		buckets[tile] = out
		mu.Lock()
		for i, r := range reuse {
			if r != 0 {
				tree.Reuse[i] += r
			}
		}
		mu.Unlock()
		parallel.PutInts(reuse)
	})
	matches := matchPool.Get(m)[:0]
	for _, b := range buckets {
		matches = append(matches, b...)
	}
	return matches
}

// ICPResult is the estimated rigid transform (yaw + translation) aligning
// the source cloud onto the target.
type ICPResult struct {
	Yaw   float64
	Trans mathx.Vec3
}

// Localize runs point-to-point ICP of src against the target tree — the
// LiDAR localization kernel of Fig. 4. A planar (yaw + translation) motion
// model matches the ground vehicle. subsample > 1 uses every k-th source
// point per iteration.
func Localize(tree *KDTree, src *Cloud, tr Tracker, iters, subsample int) ICPResult {
	if subsample < 1 {
		subsample = 1
	}
	yaw, trans := 0.0, mathx.Vec3{}
	for it := 0; it < iters; it++ {
		// Correspondence search (parallel when untracked); all reductions
		// below replay the ordered match list serially, keeping the same
		// floating-point association as a single-threaded scan.
		pairs := collectMatches(tree, src, tr, subsample, yaw, trans)
		if len(pairs) < 3 {
			matchPool.Put(pairs)
			break
		}
		var srcCx, srcCy, dstCx, dstCy float64
		var sxx, sxy, syx, syy float64
		var zSum float64
		for _, pr := range pairs {
			d := tree.cloud.Pts[pr.j]
			srcCx += pr.q.X
			srcCy += pr.q.Y
			dstCx += d.X
			dstCy += d.Y
			zSum += d.Z - pr.q.Z
		}
		n := float64(len(pairs))
		srcCx /= n
		srcCy /= n
		dstCx /= n
		dstCy /= n
		for _, pr := range pairs {
			d := tree.cloud.Pts[pr.j]
			ax, ay := pr.q.X-srcCx, pr.q.Y-srcCy
			bx, by := d.X-dstCx, d.Y-dstCy
			sxx += ax * bx
			sxy += ax * by
			syx += ay * bx
			syy += ay * by
		}
		matchPool.Put(pairs)
		dyaw := math.Atan2(sxy-syx, sxx+syy)
		yaw += dyaw
		sNew, cNew := math.Sin(dyaw), math.Cos(dyaw)
		// Incremental transform: q' = R(dyaw)q + tInc with
		// tInc = dstCentroid - R(dyaw)*srcCentroid. Compose onto the
		// accumulated transform (rotate old translation first).
		tx := dstCx - (cNew*srcCx - sNew*srcCy)
		ty := dstCy - (sNew*srcCx + cNew*srcCy)
		ox, oy := trans.X, trans.Y
		trans.X = cNew*ox - sNew*oy + tx
		trans.Y = sNew*ox + cNew*oy + ty
		trans.Z += zSum / n
		if math.Abs(dyaw) < 1e-5 && math.Hypot(tx, ty) < 1e-4 {
			break
		}
	}
	return ICPResult{Yaw: yaw, Trans: trans}
}

// Segment performs Euclidean cluster extraction: connected components under
// the "within radius" relation, ignoring near-ground points. Returns point
// index groups of at least minPts.
func Segment(tree *KDTree, cloud *Cloud, tr Tracker, radius float64, minPts int) [][]int {
	n := cloud.Len()
	visited := make([]bool, n)
	var clusters [][]int
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		cloud.access(tr, i)
		if cloud.Pts[i].Z < 0.15 { // ground rejection
			visited[i] = true
			continue
		}
		// BFS flood fill through radius neighborhoods.
		var cluster []int
		queue := []int{i}
		visited[i] = true
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			cluster = append(cluster, j)
			for _, k := range tree.Radius(cloud.Pts[j], radius) {
				if !visited[k] && cloud.Pts[k].Z >= 0.15 {
					visited[k] = true
					queue = append(queue, k)
				}
			}
		}
		if len(cluster) >= minPts {
			clusters = append(clusters, cluster)
		}
	}
	return clusters
}

// Descriptor is a compact shape signature (a simplified viewpoint feature
// histogram): radial-distance and height histograms about the centroid.
type Descriptor [16]float64

// Describe computes the descriptor of a cluster.
func Describe(cloud *Cloud, tr Tracker, cluster []int) Descriptor {
	var d Descriptor
	if len(cluster) == 0 {
		return d
	}
	var centroid mathx.Vec3
	for _, i := range cluster {
		cloud.access(tr, i)
		centroid = centroid.Add(cloud.Pts[i])
	}
	centroid = centroid.Scale(1 / float64(len(cluster)))
	maxR := 1e-9
	for _, i := range cluster {
		cloud.access(tr, i)
		if r := cloud.Pts[i].Sub(centroid).Norm(); r > maxR {
			maxR = r
		}
	}
	for _, i := range cluster {
		cloud.access(tr, i)
		rel := cloud.Pts[i].Sub(centroid)
		rbin := int(rel.Norm() / maxR * 7.999)
		zbin := 8 + int((rel.Z/maxR+1)/2*7.999)
		if rbin < 0 {
			rbin = 0
		}
		if rbin > 7 {
			rbin = 7
		}
		if zbin < 8 {
			zbin = 8
		}
		if zbin > 15 {
			zbin = 15
		}
		d[rbin]++
		d[zbin]++
	}
	// L1 normalize.
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum > 0 {
		for i := range d {
			d[i] /= sum
		}
	}
	return d
}

// Recognize matches each cluster's descriptor against a template library
// by L1 distance, returning the best template index per cluster. This is
// the "recognition" kernel of Fig. 4b.
func Recognize(cloud *Cloud, tree *KDTree, tr Tracker, clusters [][]int, library []Descriptor) []int {
	out := make([]int, len(clusters))
	for ci, cluster := range clusters {
		d := Describe(cloud, tr, cluster)
		best, bestDist := -1, math.Inf(1)
		for li, tmpl := range library {
			dist := 0.0
			for k := range d {
				dist += math.Abs(d[k] - tmpl[k])
			}
			if dist < bestDist {
				bestDist = dist
				best = li
			}
		}
		out[ci] = best
	}
	return out
}

// Normal is an estimated unit surface normal.
type Normal = mathx.Vec3

// EstimateNormals fits a plane to each point's k-neighborhood (PCA smallest
// eigenvector via plane least-squares) — the core of surface reconstruction.
// Points are independent, so untracked runs fan the kNN searches out across
// the worker pool (per-tile reuse scratch, merged afterwards); each point's
// accumulation is self-contained, so the normals are byte-identical for any
// worker count.
func EstimateNormals(tree *KDTree, cloud *Cloud, tr Tracker, k int) []Normal {
	n := cloud.Len()
	out := make([]Normal, n)
	one := func(i int, reuse []int) {
		cloud.access(tr, i)
		nbrs := tree.knnInto(cloud.Pts[i], k, reuse)
		var centroid mathx.Vec3
		for _, j := range nbrs {
			cloud.access(tr, j)
			centroid = centroid.Add(cloud.Pts[j])
		}
		centroid = centroid.Scale(1 / float64(len(nbrs)))
		// Covariance accumulation.
		var xx, xy, xz, yy, yz, zz float64
		for _, j := range nbrs {
			r := cloud.Pts[j].Sub(centroid)
			xx += r.X * r.X
			xy += r.X * r.Y
			xz += r.X * r.Z
			yy += r.Y * r.Y
			yz += r.Y * r.Z
			zz += r.Z * r.Z
		}
		out[i] = smallestEigenvector(xx, xy, xz, yy, yz, zz)
	}
	if tr != nil || parallel.Workers() <= 1 {
		for i := 0; i < n; i++ {
			one(i, tree.Reuse)
		}
		return out
	}
	var mu sync.Mutex
	parallel.For(n, icpGrain, func(i0, i1 int) {
		reuse := parallel.GetIntsZeroed(tree.cloud.Len())
		for i := i0; i < i1; i++ {
			one(i, reuse)
		}
		mu.Lock()
		for i, r := range reuse {
			if r != 0 {
				tree.Reuse[i] += r
			}
		}
		mu.Unlock()
		parallel.PutInts(reuse)
	})
	return out
}

// smallestEigenvector of a symmetric 3x3 via inverse power iteration with
// a small regularizer (adequate for well-conditioned neighborhoods).
func smallestEigenvector(xx, xy, xz, yy, yz, zz float64) mathx.Vec3 {
	a := mathx.MatFromRows([][]float64{
		{xx + 1e-9, xy, xz},
		{xy, yy + 1e-9, yz},
		{xz, yz, zz + 1e-9},
	})
	v := []float64{0, 0, 1}
	for it := 0; it < 8; it++ {
		sol, err := mathx.SolveSPD(a, v)
		if err != nil {
			return mathx.Vec3{Z: 1}
		}
		norm := math.Sqrt(sol[0]*sol[0] + sol[1]*sol[1] + sol[2]*sol[2])
		if norm == 0 {
			return mathx.Vec3{Z: 1}
		}
		for i := range sol {
			sol[i] /= norm
		}
		v = sol
	}
	return mathx.Vec3{X: v[0], Y: v[1], Z: v[2]}
}

// Reconstruct estimates normals and counts greedy local surface links —
// a simplified greedy-projection triangulation that reproduces the memory
// behaviour (kNN per point) of PCL's reconstruction. Returns the triangle
// count.
func Reconstruct(tree *KDTree, cloud *Cloud, tr Tracker, k int) int {
	normals := EstimateNormals(tree, cloud, tr, k)
	triangles := 0
	for i := 0; i < cloud.Len(); i++ {
		nbrs := tree.KNN(cloud.Pts[i], 3)
		if len(nbrs) < 3 {
			continue
		}
		// Accept the local triangle when the neighbor normals agree.
		dot := normals[nbrs[0]].Dot(normals[nbrs[1]])
		if math.Abs(dot) > 0.5 {
			triangles++
		}
	}
	return triangles
}
