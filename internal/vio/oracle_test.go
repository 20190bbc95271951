package vio

// The allocating filter and the general dense-matrix algebra it ran on,
// as they stood before the filter became fixed-size. Nothing but tests
// reaches them: every fixed-size estimate must equal theirs in bits.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sensors"
	"sov/internal/world"
)

// oracleVIO is the allocating filter the fixed-size VIO replaced, kept
// verbatim as the oracle its every estimate is compared against.
type oracleVIO struct {
	x [stateDim]float64
	p *Mat

	// landmarks maps landmark ID to its map point.
	landmarks map[int]landmark
	// pending accumulates the first sightings of a landmark; the anchor
	// is committed as their average (initAnchorSightings), which reduces
	// the anchor noise that drives odometry frame drift.
	pending map[int][]mathx.Vec2

	updates  int
	propagns int
	newLM    int
}

// newOracle returns a filter initialized at the given pose with small initial
// uncertainty.
func newOracle(initial world.Pose) *oracleVIO {
	v := &oracleVIO{p: NewMat(stateDim, stateDim),
		landmarks: make(map[int]landmark), pending: make(map[int][]mathx.Vec2)}
	v.x[iPx] = initial.Pos.X
	v.x[iPy] = initial.Pos.Y
	v.x[iYaw] = initial.Heading
	for i := 0; i < stateDim; i++ {
		v.p.Set(i, i, 0.01)
	}
	v.p.Set(iVx, iVx, 1.0)
	v.p.Set(iVy, iVy, 1.0)
	v.p.Set(iBg, iBg, 1e-4)
	v.p.Set(iBax, iBax, 1e-2)
	v.p.Set(iBay, iBay, 1e-2)
	return v
}

// SetVelocity seeds the world-frame velocity estimate (e.g. from wheel
// odometry at startup). Starting the filter at rest while the vehicle moves
// forces a large transient that odometry mode cannot fully unwind.
func (v *oracleVIO) SetVelocity(vel mathx.Vec2) {
	v.x[iVx] = vel.X
	v.x[iVy] = vel.Y
}

// Pose returns the current estimate.
func (v *oracleVIO) Pose() world.Pose {
	return world.Pose{Pos: mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}, Heading: mathx.WrapAngle(v.x[iYaw])}
}

// Stats reports propagation steps, camera updates, and landmarks created.
func (v *oracleVIO) Stats() (propagations, updates, landmarks int) {
	return v.propagns, v.updates, v.newLM
}

// PropagateIMU advances the filter with one IMU sample over dt.
func (v *oracleVIO) PropagateIMU(s sensors.IMUSample, dt time.Duration) {
	h := dt.Seconds()
	if h <= 0 {
		return
	}
	v.propagns++

	omega := s.YawRate - v.x[iBg]
	ax := s.AccelX - v.x[iBax]
	ay := s.AccelY - v.x[iBay]
	yaw := v.x[iYaw]
	c, sn := math.Cos(yaw), math.Sin(yaw)
	// World-frame acceleration.
	awx := c*ax - sn*ay
	awy := sn*ax + c*ay

	// Nominal propagation.
	v.x[iPx] += v.x[iVx]*h + 0.5*awx*h*h
	v.x[iPy] += v.x[iVy]*h + 0.5*awy*h*h
	v.x[iVx] += awx * h
	v.x[iVy] += awy * h
	v.x[iYaw] = mathx.WrapAngle(yaw + omega*h)

	// Error-state Jacobian F (discrete, first order).
	f := Eye(stateDim)
	f.Set(iPx, iVx, h)
	f.Set(iPy, iVy, h)
	// d v / d yaw: rotating the body accel.
	f.Set(iVx, iYaw, (-sn*ax-c*ay)*h)
	f.Set(iVy, iYaw, (c*ax-sn*ay)*h)
	// d v / d ba = -R h.
	f.Set(iVx, iBax, -c*h)
	f.Set(iVx, iBay, sn*h)
	f.Set(iVy, iBax, -sn*h)
	f.Set(iVy, iBay, -c*h)
	f.Set(iYaw, iBg, -h)

	// P = F P Fᵀ + Q.
	v.p = MatMul(MatMul(f, v.p), f.T())
	qa := accelNoise * accelNoise * h
	qg := gyroNoise * gyroNoise * h
	qb := biasWalk * biasWalk * h
	v.p.Add(iVx, iVx, qa)
	v.p.Add(iVy, iVy, qa)
	v.p.Add(iYaw, iYaw, qg)
	v.p.Add(iBg, iBg, qb)
	v.p.Add(iBax, iBax, qb)
	v.p.Add(iBay, iBay, qb)
	v.p.Symmetrize()
}

// UpdateCamera applies a set of landmark observations. Unknown landmarks
// are initialized relative to the current estimate; known ones correct the
// state.
func (v *oracleVIO) UpdateCamera(obs []LandmarkObs) {
	if len(obs) > maxLandmark {
		obs = obs[:maxLandmark]
	}
	const initAnchorSightings = 4
	for _, o := range obs {
		lm, known := v.landmarks[o.ID]
		if !known {
			// Anchor to the current (possibly drifted) estimate once
			// enough sightings have accumulated. This inheritance is
			// where VIO's cumulative error comes from (Sec. VI-B).
			pose := v.Pose()
			rel := mathx.Vec2{X: o.Range * math.Cos(o.Bearing), Y: o.Range * math.Sin(o.Bearing)}
			est := pose.Pos.Add(rel.Rotate(pose.Heading))
			v.pending[o.ID] = append(v.pending[o.ID], est)
			if len(v.pending[o.ID]) >= initAnchorSightings {
				var avg mathx.Vec2
				for _, p := range v.pending[o.ID] {
					avg = avg.Add(p)
				}
				v.landmarks[o.ID] = landmark{pos: avg.Scale(1 / float64(len(v.pending[o.ID]))), std: anchorPosStd}
				delete(v.pending, o.ID)
				v.newLM++
			}
			continue
		}
		v.updateOne(lm, o)
	}
	v.updates++
}

// updateOne performs a 2-D (range, bearing) EKF update against the stored
// landmark position.
func (v *oracleVIO) updateOne(lm landmark, o LandmarkObs) {
	dx := lm.pos.X - v.x[iPx]
	dy := lm.pos.Y - v.x[iPy]
	r2 := dx*dx + dy*dy
	r := math.Sqrt(r2)
	if r < 0.5 {
		return // too close; Jacobian ill-conditioned
	}
	predRange := r
	predBearing := mathx.WrapAngle(math.Atan2(dy, dx) - v.x[iYaw])

	// H: 2 x stateDim.
	h := NewMat(2, stateDim)
	h.Set(0, iPx, -dx/r)
	h.Set(0, iPy, -dy/r)
	h.Set(1, iPx, dy/r2)
	h.Set(1, iPy, -dx/r2)
	h.Set(1, iYaw, -1)

	lmVar := lm.std * lm.std
	rm := NewMat(2, 2)
	rm.Set(0, 0, rangeStd*rangeStd+lmVar)
	rm.Set(1, 1, bearingStd*bearingStd+lmVar/r2)

	resid := []float64{
		o.Range - predRange,
		mathx.WrapAngle(o.Bearing - predBearing),
	}
	v.kalmanUpdate(h, rm, resid, nil)
}

// UpdateGPS applies a global position fix (the GPS-VIO hybrid of Sec. VI-B:
// when GNSS is strong it corrects the accumulated VIO drift; the EKF update
// itself is trivially cheap compared to the vision front-end).
func (v *oracleVIO) UpdateGPS(fix sensors.GPSFix) {
	h := NewMat(2, stateDim)
	h.Set(0, iPx, 1)
	h.Set(1, iPy, 1)
	rm := NewMat(2, 2)
	rm.Set(0, 0, gpsPosStd*gpsPosStd)
	rm.Set(1, 1, gpsPosStd*gpsPosStd)
	resid := []float64{fix.Pos.X - v.x[iPx], fix.Pos.Y - v.x[iPy]}
	// Schmidt-style considered update: the gain is restricted to the
	// position states. In pure-odometry mode the landmark anchors live in
	// a drifted frame; letting a global position fix rip through the
	// velocity/bias cross-covariances pumps energy into the filter (the
	// anchors pull back every frame). Restricting the gain matches the
	// paper's design — "GNSS updates are directly used as the vehicle's
	// current position".
	before := mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}
	v.kalmanUpdate(h, rm, resid, []int{iPx, iPy})
	// "The GNSS signals are used to correct the VIO errors": the
	// correction re-anchors the odometry frame, so translate the landmark
	// anchors along with the pose. Otherwise drifted anchors pull the
	// estimate straight back.
	shift := mathx.Vec2{X: v.x[iPx], Y: v.x[iPy]}.Sub(before)
	if shift.Norm() > 0 {
		for id, lm := range v.landmarks {
			lm.pos = lm.pos.Add(shift)
			v.landmarks[id] = lm
		}
	}
}

// kalmanUpdate applies a measurement with Joseph-form covariance update
// (valid for any, including masked, gain). gainRows, when non-nil, limits
// the correction to those state indices.
func (v *oracleVIO) kalmanUpdate(h, rm *Mat, resid []float64, gainRows []int) {
	ht := h.T()
	s := MatAdd(MatMul(MatMul(h, v.p), ht), rm)
	sInv, err := InvertSPD(s)
	if err != nil {
		return // numerically degenerate; skip this measurement
	}
	k := MatMul(MatMul(v.p, ht), sInv)
	if gainRows != nil {
		allowed := make(map[int]bool, len(gainRows))
		for _, r := range gainRows {
			allowed[r] = true
		}
		for i := 0; i < k.Rows; i++ {
			if !allowed[i] {
				for j := 0; j < k.Cols; j++ {
					k.Set(i, j, 0)
				}
			}
		}
	}
	dx := k.MulVec(resid)
	for i := 0; i < stateDim; i++ {
		v.x[i] += dx[i]
	}
	v.x[iYaw] = mathx.WrapAngle(v.x[iYaw])
	// Joseph form: P = (I-KH) P (I-KH)ᵀ + K R Kᵀ.
	ikh := MatSub(Eye(stateDim), MatMul(k, h))
	v.p = MatAdd(MatMul(MatMul(ikh, v.p), ikh.T()), MatMul(MatMul(k, rm), k.T()))
	v.p.Symmetrize()
}

// Mat is a small dense row-major matrix. It is sized for the SoV's state
// estimators (EKF states of a few tens of dimensions), not for large-scale
// numerics.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a Rows×Cols zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("oracle: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MatFromRows builds a matrix from row slices; all rows must share a length.
func MatFromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		panic("oracle: MatFromRows with no rows")
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("oracle: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MatMul returns a*b.
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("oracle: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatAdd returns a+b.
func MatAdd(a, b *Mat) *Mat {
	checkSameShape(a, b, "add")
	out := NewMat(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// MatSub returns a-b.
func MatSub(a, b *Mat) *Mat {
	checkSameShape(a, b, "sub")
	out := NewMat(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Symmetrize replaces m with (m + mᵀ)/2; used to keep EKF covariances
// symmetric under floating-point drift.
func (m *Mat) Symmetrize() {
	if m.Rows != m.Cols {
		panic("oracle: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// MulVec returns m*v for a column vector v.
func (m *Mat) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("oracle: mulvec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// Cholesky factors a symmetric positive-definite matrix as L*Lᵀ and returns
// the lower-triangular L. It returns an error when the matrix is not
// (numerically) positive definite.
func Cholesky(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("oracle: cholesky on non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("oracle: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveSPD solves a*x = b for symmetric positive-definite a via Cholesky.
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("oracle: solve dimension mismatch %d vs %d", len(b), n)
	}
	// Forward substitution: L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// InvertSPD inverts a symmetric positive-definite matrix via Cholesky
// column solves. Intended for the small innovation covariances in the EKF.
func InvertSPD(a *Mat) (*Mat, error) {
	n := a.Rows
	inv := NewMat(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := SolveSPD(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

func checkSameShape(a, b *Mat, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("oracle: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Known products hold the oracle's algebra to the mathematics, so a filter
// that equals the oracle in bits is also right.

func TestMatMulIdentity(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	got := MatMul(a, Eye(2))
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("a*I != a: %v", got.Data)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := MatFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := MatMul(a, b)
	want := MatFromRows([][]float64{{58, 64}, {139, 154}})
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("matmul = %v, want %v", got.Data, want.Data)
		}
	}
}

func TestMatTranspose(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at.Data)
	}
}

func TestMatAddSub(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{4, 3}, {2, 1}})
	s := MatAdd(a, b)
	for _, v := range s.Data {
		if v != 5 {
			t.Fatalf("add = %v", s.Data)
		}
	}
	d := MatSub(s, b)
	for i := range d.Data {
		if d.Data[i] != a.Data[i] {
			t.Fatalf("sub = %v", d.Data)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("symmetrize = %v", a.Data)
	}
}

func TestMatPanicsOnBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(2, 3))
}

func TestMulVecKnown(t *testing.T) {
	a := MatFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := a.MulVec([]float64{1, 2, 3})
	if got[0] != 7 || got[1] != 6 {
		t.Fatalf("mulvec = %v", got)
	}
}
