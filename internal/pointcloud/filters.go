package pointcloud

import (
	"math"

	"sov/internal/mathx"
	"sov/internal/sim"
)

// VoxelDownsample replaces all points falling into each cell of a voxel
// grid with their centroid — PCL's standard pre-filter. The hash-grid pass
// is *regular* streaming; its cache behaviour contrasts with the kd-tree
// kernels (part of why preprocessing is cheap and neighbor search is not).
func VoxelDownsample(c *Cloud, tr Tracker, voxel float64) *Cloud {
	if voxel <= 0 || c.Len() == 0 {
		out := &Cloud{Pts: make([]mathx.Vec3, len(c.Pts)), Region: c.Region}
		copy(out.Pts, c.Pts)
		return out
	}
	type cell struct {
		sum mathx.Vec3
		n   int
	}
	grid := make(map[[3]int32]*cell, c.Len()/4)
	for i, p := range c.Pts {
		c.access(tr, i)
		key := [3]int32{
			int32(math.Floor(p.X / voxel)),
			int32(math.Floor(p.Y / voxel)),
			int32(math.Floor(p.Z / voxel)),
		}
		cl, ok := grid[key]
		if !ok {
			cl = &cell{}
			grid[key] = cl
		}
		cl.sum = cl.sum.Add(p)
		cl.n++
	}
	out := &Cloud{Pts: make([]mathx.Vec3, 0, len(grid)), Region: c.Region}
	for _, cl := range grid {
		out.Pts = append(out.Pts, cl.sum.Scale(1/float64(cl.n)))
	}
	return out
}

// Plane is z = A*x + B*y + C (a near-horizontal plane parameterization
// adequate for ground extraction).
type Plane struct {
	A, B, C float64
}

// DistanceTo returns the vertical distance of p from the plane.
func (pl Plane) DistanceTo(p mathx.Vec3) float64 {
	return math.Abs(p.Z - (pl.A*p.X + pl.B*p.Y + pl.C))
}

// RansacGround fits the dominant near-horizontal plane by RANSAC and
// returns the plane, the inlier indices (ground), and the outlier indices
// (obstacles). This is the ground-removal step every LiDAR pipeline runs
// before clustering.
func RansacGround(c *Cloud, tr Tracker, iterations int, tolerance float64, rng *sim.RNG) (Plane, []int, []int) {
	n := c.Len()
	if n < 3 {
		return Plane{}, nil, indicesUpTo(n)
	}
	best := Plane{}
	bestCount := -1
	for it := 0; it < iterations; it++ {
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if i == j || j == k || i == k {
			continue
		}
		c.access(tr, i)
		c.access(tr, j)
		c.access(tr, k)
		pl, ok := planeFrom3(c.Pts[i], c.Pts[j], c.Pts[k])
		if !ok || math.Hypot(pl.A, pl.B) > 0.3 { // reject steep planes
			continue
		}
		count := 0
		// Count inliers on a subsample for speed; exact split afterwards.
		stride := 1 + n/512
		for p := 0; p < n; p += stride {
			c.access(tr, p)
			if pl.DistanceTo(c.Pts[p]) < tolerance {
				count++
			}
		}
		if count > bestCount {
			bestCount = count
			best = pl
		}
	}
	if bestCount < 0 {
		return Plane{}, nil, indicesUpTo(n)
	}
	var ground, rest []int
	for p := 0; p < n; p++ {
		c.access(tr, p)
		if best.DistanceTo(c.Pts[p]) < tolerance {
			ground = append(ground, p)
		} else {
			rest = append(rest, p)
		}
	}
	return best, ground, rest
}

// planeFrom3 solves z = Ax + By + C through three points.
func planeFrom3(p1, p2, p3 mathx.Vec3) (Plane, bool) {
	// Solve the 3x3 linear system [x y 1][A B C]' = z.
	// Determinant check via expansion.
	det := p1.X*(p2.Y-p3.Y) - p1.Y*(p2.X-p3.X) + (p2.X*p3.Y - p3.X*p2.Y)
	if math.Abs(det) < 1e-9 {
		return Plane{}, false
	}
	// Cramer's rule.
	z := [3]float64{p1.Z, p2.Z, p3.Z}
	solve := func(col int) float64 {
		m := [3][3]float64{
			{p1.X, p1.Y, 1},
			{p2.X, p2.Y, 1},
			{p3.X, p3.Y, 1},
		}
		for r := 0; r < 3; r++ {
			m[r][col] = z[r]
		}
		return (m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])) / det
	}
	return Plane{A: solve(0), B: solve(1), C: solve(2)}, true
}

func indicesUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
