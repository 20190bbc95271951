package pointcloud

import (
	"math"
	"testing"

	"sov/internal/cachesim"
	"sov/internal/mathx"
	"sov/internal/sim"
)

func grid(n int) *Cloud {
	c := &Cloud{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Pts = append(c.Pts, mathx.Vec3{X: float64(i), Y: float64(j), Z: 0.5})
		}
	}
	return c
}

func TestNearestExact(t *testing.T) {
	c := grid(10)
	tr := Build(c, nil)
	idx, d2 := tr.nearestInto(mathx.Vec3{X: 3.2, Y: 7.1, Z: 0.5}, tr.Reuse)
	if c.Pts[idx].X != 3 || c.Pts[idx].Y != 7 {
		t.Fatalf("nearest = %v", c.Pts[idx])
	}
	if math.Abs(d2-(0.04+0.01)) > 1e-9 {
		t.Fatalf("d2 = %v", d2)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(1)
	c := GenerateScan(500, 7, rng)
	tr := Build(c, nil)
	for q := 0; q < 50; q++ {
		query := mathx.Vec3{X: rng.Uniform(-20, 20), Y: rng.Uniform(-20, 20), Z: rng.Uniform(0, 3)}
		bi, bd := -1, math.Inf(1)
		for i, p := range c.Pts {
			d := p.Sub(query)
			if d2 := d.Dot(d); d2 < bd {
				bd = d2
				bi = i
			}
		}
		gi, gd := tr.nearestInto(query, tr.Reuse)
		if gi != bi && math.Abs(gd-bd) > 1e-12 {
			t.Fatalf("query %d: tree %d(%v) vs brute %d(%v)", q, gi, gd, bi, bd)
		}
	}
}

func TestRadiusMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(2)
	c := GenerateScan(400, 3, rng)
	tr := Build(c, nil)
	query := mathx.Vec3{X: 1, Y: 2, Z: 1}
	r := 3.0
	got := map[int]bool{}
	for _, i := range tr.Radius(query, r) {
		got[i] = true
	}
	for i, p := range c.Pts {
		in := p.Sub(query).Norm() <= r
		if in != got[i] {
			t.Fatalf("radius mismatch at %d: in=%v got=%v", i, in, got[i])
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(3)
	c := GenerateScan(300, 4, rng)
	tr := Build(c, nil)
	query := mathx.Vec3{X: 0, Y: 0, Z: 1}
	k := 7
	got := tr.KNN(query, k)
	if len(got) != k {
		t.Fatalf("knn size = %d", len(got))
	}
	// The max distance among returned must equal the k-th smallest overall.
	var maxGot float64
	for _, i := range got {
		if d := c.Pts[i].Sub(query).Norm(); d > maxGot {
			maxGot = d
		}
	}
	dists := make([]float64, len(c.Pts))
	for i, p := range c.Pts {
		dists[i] = p.Sub(query).Norm()
	}
	// selection of k-th smallest
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(dists); j++ {
			if dists[j] < dists[min] {
				min = j
			}
		}
		dists[i], dists[min] = dists[min], dists[i]
	}
	if math.Abs(maxGot-dists[k-1]) > 1e-9 {
		t.Fatalf("kth distance: got %v want %v", maxGot, dists[k-1])
	}
}

func TestKNNZeroK(t *testing.T) {
	c := grid(3)
	tr := Build(c, nil)
	if got := tr.KNN(mathx.Vec3{}, 0); got != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestLocalizeRecoversTransform(t *testing.T) {
	rng := sim.NewRNG(4)
	target := GenerateScan(3000, 11, rng)
	// The vehicle moved: the new scan sees the world shifted by the
	// inverse motion. Localize src onto target should recover it.
	src := target.Transform(0.05, mathx.Vec3{X: 0.4, Y: -0.2})
	tree := Build(target, nil)
	res := Localize(tree, src, nil, 30, 2)
	// Aligning src onto target must find the inverse: yaw ≈ -0.05.
	if math.Abs(res.Yaw+0.05) > 0.01 {
		t.Fatalf("yaw = %v, want ~-0.05", res.Yaw)
	}
}

func TestLocalizeIdentity(t *testing.T) {
	rng := sim.NewRNG(5)
	target := GenerateScan(1000, 11, rng)
	src := target.Transform(0, mathx.Vec3{})
	tree := Build(target, nil)
	res := Localize(tree, src, nil, 10, 1)
	if math.Abs(res.Yaw) > 1e-3 || res.Trans.Norm() > 1e-2 {
		t.Fatalf("identity ICP moved: yaw=%v trans=%v", res.Yaw, res.Trans)
	}
}

func TestSegmentSeparatesClusters(t *testing.T) {
	c := &Cloud{}
	// Two dense clusters above ground, far apart, plus ground points.
	for i := 0; i < 50; i++ {
		c.Pts = append(c.Pts, mathx.Vec3{X: float64(i%5) * 0.1, Y: float64(i/5%5) * 0.1, Z: 1 + float64(i%3)*0.1})
		c.Pts = append(c.Pts, mathx.Vec3{X: 10 + float64(i%5)*0.1, Y: float64(i/5%5) * 0.1, Z: 1})
		c.Pts = append(c.Pts, mathx.Vec3{X: float64(i) * 0.3, Y: 5, Z: 0.0}) // ground
	}
	tree := Build(c, nil)
	clusters := Segment(tree, c, nil, 0.5, 10)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
}

func TestDescribeNormalized(t *testing.T) {
	rng := sim.NewRNG(6)
	c := GenerateScan(500, 2, rng)
	tree := Build(c, nil)
	clusters := Segment(tree, c, nil, 1.0, 20)
	if len(clusters) == 0 {
		t.Skip("no clusters in this scan")
	}
	d := Describe(c, nil, clusters[0])
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("descriptor not normalized: %v", sum)
	}
}

func TestDescribeEmptyCluster(t *testing.T) {
	c := grid(2)
	d := Describe(c, nil, nil)
	for _, v := range d {
		if v != 0 {
			t.Fatal("empty cluster should give zero descriptor")
		}
	}
}

func TestRecognizeSelectsClosestTemplate(t *testing.T) {
	c := grid(5)
	cluster := []int{0, 1, 2, 3, 4, 5, 6}
	d := Describe(c, nil, cluster)
	other := Descriptor{}
	other[0] = 1
	got := Recognize(c, nil, nil, [][]int{cluster}, []Descriptor{other, d})
	if got[0] != 1 {
		t.Fatalf("recognized template %d, want 1 (exact match)", got[0])
	}
}

func TestEstimateNormalsOnPlane(t *testing.T) {
	c := grid(12) // flat plane at z=0.5
	tree := Build(c, nil)
	normals := EstimateNormals(tree, c, nil, 8)
	for i, n := range normals {
		if math.Abs(math.Abs(n.Z)-1) > 0.05 {
			t.Fatalf("normal %d = %v, want ±z", i, n)
		}
	}
}

func TestReconstructCountsTriangles(t *testing.T) {
	c := grid(10)
	tree := Build(c, nil)
	tris := Reconstruct(tree, c, nil, 6)
	if tris < 50 {
		t.Fatalf("triangles = %d, want most of the plane linked", tris)
	}
}

func TestReuseIsIrregular(t *testing.T) {
	// Fig. 4a: reuse counts vary widely across points and differ between
	// two scenes scanned by the same LiDAR.
	rng := sim.NewRNG(7)
	scanA := GenerateScan(2000, 100, rng.Fork())
	scanB := GenerateScan(2000, 200, rng.Fork())
	moved := scanA.Transform(0.03, mathx.Vec3{X: 0.3})
	movedB := scanB.Transform(0.03, mathx.Vec3{X: 0.3})

	treeA := Build(scanA, nil)
	Localize(treeA, moved, nil, 15, 2)
	treeB := Build(scanB, nil)
	Localize(treeB, movedB, nil, 15, 2)

	statsOf := func(tr *KDTree) (min, max int, mean float64) {
		min, max = 1<<30, 0
		sum := 0
		for _, r := range tr.Reuse {
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
			sum += r
		}
		return min, max, float64(sum) / float64(len(tr.Reuse))
	}
	minA, maxA, meanA := statsOf(treeA)
	_, maxB, meanB := statsOf(treeB)
	if maxA < 10*(minA+1) {
		t.Fatalf("reuse not irregular: min=%d max=%d", minA, maxA)
	}
	// The distributions differ across scenes.
	if maxA == maxB && math.Abs(meanA-meanB) < 1e-9 {
		t.Fatal("two scenes produced identical reuse statistics")
	}
	h := treeA.ReuseHistogram(50)
	if len(h) < 3 {
		t.Fatalf("histogram too narrow: %v", h)
	}
}

func TestCacheTrafficExceedsOptimal(t *testing.T) {
	// Fig. 4b: kd-tree kernels' off-chip traffic is far above compulsory.
	rng := sim.NewRNG(8)
	scan := GenerateScan(4000, 42, rng)
	moved := scan.Transform(0.02, mathx.Vec3{X: 0.2})
	cache := cachesim.New(cachesim.Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 8})
	tree := Build(scan, cache)
	cache.Reset() // measure the query phase, not construction
	Localize(tree, moved, cache, 10, 2)
	s := cache.Stats()
	if s.TrafficRatio() < 3 {
		t.Fatalf("localization traffic ratio = %v, want >> 1", s.TrafficRatio())
	}
}

func TestTransformRoundTrip(t *testing.T) {
	c := grid(4)
	moved := c.Transform(0.3, mathx.Vec3{X: 1, Y: -2, Z: 0.1})
	back := moved.Transform(-0.3, mathx.Vec3{})
	// back = R(-0.3)(R(0.3)p + t) = p + R(-0.3)t; just verify rotation is
	// undone by checking pairwise distances are preserved.
	d0 := c.Pts[0].DistTo(c.Pts[5])
	d1 := back.Pts[0].DistTo(back.Pts[5])
	if math.Abs(d0-d1) > 1e-9 {
		t.Fatalf("rigid transform distorted distances: %v vs %v", d0, d1)
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	rng := sim.NewRNG(10)
	scan := GenerateScan(10000, 1, rng)
	tree := Build(scan, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.nearestInto(mathx.Vec3{X: float64(i % 20), Y: float64(i % 17), Z: 1}, tree.Reuse)
	}
}

func BenchmarkLocalizeICP(b *testing.B) {
	rng := sim.NewRNG(11)
	scan := GenerateScan(5000, 1, rng)
	moved := scan.Transform(0.02, mathx.Vec3{X: 0.2})
	tree := Build(scan, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Localize(tree, moved, nil, 10, 4)
	}
}
