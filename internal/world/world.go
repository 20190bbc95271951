// Package world provides the synthetic environment the SoV operates in:
// lanes, static and dynamic obstacles (with trajectories), and the 3-D
// landmark fields observed by the cameras. It substitutes for the physical
// deployment sites (Fishers, Nara/Fukuoka, Shenzhen, Fribourg) and supplies
// the ground truth every sensor model samples.
package world

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
)

// ObstacleKind classifies obstacles for the detection/classification models.
type ObstacleKind int

// Obstacle kinds seen in micromobility deployments.
const (
	KindStatic ObstacleKind = iota
	KindPedestrian
	KindCyclist
	KindVehicle
)

// Trajectory gives an obstacle's position and velocity at time t.
type Trajectory func(t time.Duration) (pos, vel mathx.Vec2)

// StaticTrajectory pins an obstacle at pos.
func StaticTrajectory(pos mathx.Vec2) Trajectory {
	return func(time.Duration) (mathx.Vec2, mathx.Vec2) { return pos, mathx.Vec2{} }
}

// LinearTrajectory moves from start with constant velocity, starting at t0
// (the obstacle stays at start before t0 — a pedestrian stepping off a curb).
func LinearTrajectory(start, vel mathx.Vec2, t0 time.Duration) Trajectory {
	return func(t time.Duration) (mathx.Vec2, mathx.Vec2) {
		if t < t0 {
			return start, mathx.Vec2{}
		}
		dt := (t - t0).Seconds()
		return start.Add(vel.Scale(dt)), vel
	}
}

// Obstacle is one object in the world.
type Obstacle struct {
	ID     int
	Kind   ObstacleKind
	Radius float64 // meters, footprint radius
	Traj   Trajectory
}

// At samples the trajectory.
func (o *Obstacle) At(t time.Duration) (pos, vel mathx.Vec2) { return o.Traj(t) }

// Lane is a straight lane segment with a width (the paper: 1–3 m lanes,
// lane-granularity maneuvering).
type Lane struct {
	Start, End mathx.Vec2
	Width      float64
}

// Length returns the centerline length.
func (l Lane) Length() float64 { return l.Start.DistTo(l.End) }

// Direction returns the unit direction of travel.
func (l Lane) Direction() mathx.Vec2 {
	d := l.End.Sub(l.Start)
	n := d.Norm()
	if n == 0 {
		return mathx.Vec2{X: 1}
	}
	return d.Scale(1 / n)
}

// CenterAt returns the centerline point at arclength s (clamped).
func (l Lane) CenterAt(s float64) mathx.Vec2 {
	s = mathx.Clamp(s, 0, l.Length())
	return l.Start.Add(l.Direction().Scale(s))
}

// LateralOffset returns the signed lateral distance of p from the
// centerline (positive left of travel direction).
func (l Lane) LateralOffset(p mathx.Vec2) float64 {
	d := l.Direction()
	rel := p.Sub(l.Start)
	return -d.Y*rel.X + d.X*rel.Y
}

// Contains reports whether p lies within the lane polygon.
func (l Lane) Contains(p mathx.Vec2) bool {
	d := l.Direction()
	rel := p.Sub(l.Start)
	along := rel.Dot(d)
	if along < 0 || along > l.Length() {
		return false
	}
	return math.Abs(l.LateralOffset(p)) <= l.Width/2
}

// World is the complete synthetic environment.
type World struct {
	Lanes []Lane
	// Obstacles are only ever appended to. A Frame knows an instant by its
	// time and the list's length, so a caller that replaces or reorders the
	// list must build new frames over the world.
	Obstacles []*Obstacle
	// Landmarks are the 3-D visual features VIO localizes against.
	Landmarks []mathx.Vec3
}

// Route is an ordered sequence of lanes the vehicle follows (the
// pre-constructed OSM-style lane map's path for a trip).
type Route struct {
	Lanes []Lane
}

// distToLane returns the point-to-segment distance to a lane's centerline.
func distToLane(l Lane, p mathx.Vec2) float64 {
	d := l.Direction()
	along := mathx.Clamp(p.Sub(l.Start).Dot(d), 0, l.Length())
	return p.DistTo(l.Start.Add(d.Scale(along)))
}

// ActiveLane returns the index of the lane the position is on: the nearest
// lane by centerline distance, with later lanes winning ties so that
// corner transitions hand over to the next leg.
func (r Route) ActiveLane(p mathx.Vec2) int {
	best, bestD := 0, math.Inf(1)
	for i, l := range r.Lanes {
		if d := distToLane(l, p); d <= bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// TotalLength returns the route length.
func (r Route) TotalLength() float64 {
	s := 0.0
	for _, l := range r.Lanes {
		s += l.Length()
	}
	return s
}

// Pose is an observer pose on the ground plane.
type Pose struct {
	Pos     mathx.Vec2
	Heading float64
}

// Detection is a ground-truth view of one obstacle from a pose.
type Detection struct {
	Obstacle *Obstacle
	Pos      mathx.Vec2 // world frame
	Vel      mathx.Vec2 // world frame
	Range    float64    // meters from observer
	Bearing  float64    // radians relative to observer heading
}

// ObstacleState is one obstacle's trajectory sampled at one instant.
type ObstacleState struct{ Pos, Vel mathx.Vec2 }

// Frame is every obstacle's state at one virtual instant: the first query
// at a t it does not hold samples each trajectory (a pure function of t)
// once, every other query at that t reads the samples. It is the mutable
// half of the pair, owned by one vehicle; the World stays read-only.
//
// A frame also keeps one window (Around): the obstacles near a point at one
// t with their samples, so the queries a sensor sweep makes there walk that
// short list instead of every obstacle.
type Frame struct {
	w      *World
	t      time.Duration
	states []ObstacleState

	// The window: obstacles and their samples, in index order.
	winObstacles []*Obstacle
	winStates    []ObstacleState
	winT         time.Duration
	winCenter    mathx.Vec2
	winReach     float64
	winN         int // len(states) the window was cut from; -1 while unset

	visits int64 // obstacles the frame's queries have walked
}

// NewFrame returns an empty frame over w.
func NewFrame(w *World) *Frame { return &Frame{w: w, winN: -1} }

// At returns every obstacle's state at t, index-aligned with World.Obstacles
// (a world that grew is resampled), valid until the next call with another t.
// The samples and the window are keyed on (t, len(World.Obstacles)), which
// holds because obstacles are only appended: after the list is replaced
// with one of the same length, the frame would answer from the old list, so
// such a caller needs a new frame.
func (f *Frame) At(t time.Duration) []ObstacleState {
	obstacles := f.w.Obstacles
	if f.t == t && len(f.states) == len(obstacles) {
		return f.states
	}
	if cap(f.states) < len(obstacles) {
		f.states = make([]ObstacleState, len(obstacles))
	}
	states := f.states[:len(obstacles)]
	for i, o := range obstacles {
		states[i].Pos, states[i].Vel = o.At(t)
	}
	f.states, f.t = states, t
	return states
}

// Around sets the frame's window: from the samples at t, every obstacle not
// provably outside the box center ± reach, with its sample, in index order.
// An obstacle is outside when max(|dx|, |dy|) > reach; a NaN or infinite
// difference (a NaN or ±Inf position) stays in, as it passes the query
// loops' prefilter. A non-finite center or reach sets no window. The window
// replaces the previous one and serves every query at t whose box fits
// inside it (Frame.view).
func (f *Frame) Around(t time.Duration, center mathx.Vec2, reach float64) {
	states := f.At(t)
	f.winN = -1
	if !isFinite(center.X) || !isFinite(center.Y) || !isFinite(reach) {
		return
	}
	if cap(f.winStates) < len(states) {
		f.winObstacles = make([]*Obstacle, 0, len(states))
		f.winStates = make([]ObstacleState, 0, len(states))
	}
	obstacles, samples := f.winObstacles[:0], f.winStates[:0]
	for i, s := range states {
		rel := s.Pos.Sub(center)
		if d := max(math.Abs(rel.X), math.Abs(rel.Y)); d > reach && !math.IsInf(d, 1) {
			continue
		}
		obstacles = append(obstacles, f.w.Obstacles[i])
		samples = append(samples, s)
	}
	f.winObstacles, f.winStates = obstacles, samples
	f.winT, f.winCenter, f.winReach, f.winN = t, center, reach, len(states)
}

func isFinite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// Visits returns how many obstacles the frame's queries have walked, one
// per obstacle per query: what a window saves.
func (f *Frame) Visits() int64 { return f.visits }

// view returns the obstacles, and their samples at t, that a query of the
// box p ± maxRange walks: the window's when it was cut at t from the world
// as it is now and provably holds every obstacle the query could keep,
// every obstacle otherwise. It counts the walk.
//
// The fit test is conservative in floating point. Per axis, a query keeps
// an obstacle at x only if |fl(x-p)| ≤ maxRange, and the window dropped it
// only if |fl(x-c)| > reach. With u = 2⁻⁵³ and d = |fl(p-c)|, every
// subtraction and addition rounds within a factor 1±u of its exact result
// (gradual underflow makes sums and differences exact below the normal
// range), so |x-c| ≤ |x-p| + |p-c| gives
// |fl(x-c)| ≤ fl(maxRange+d)·(1+u)/(1-u)² < fl(maxRange+d)·(1+2⁻⁴⁹)·(1-u).
// The test compares fl(fl(maxRange+d)·(1+2⁻⁴⁹)) with reach, so a fit
// means every obstacle the query keeps is in the window. Below the normal
// range the product rounds no lower than the sum, and there every step is
// exact. A negative maxRange (−Inf included) keeps no finite obstacle, only
// NaN positions, which every window holds. A NaN maxRange, a +Inf one, or a
// NaN or infinite p makes the product NaN or +Inf and never fits; Around
// keeps no window with a non-finite center or reach.
// The window keeps index order, so a query appends, sorts and reports what
// it would over every obstacle.
func (f *Frame) view(p mathx.Vec2, t time.Duration, maxRange float64) (obstacles []*Obstacle, states []ObstacleState) {
	obstacles, states = f.w.Obstacles, f.At(t)
	if f.winN == len(states) && f.winT == t {
		d := max(math.Abs(p.X-f.winCenter.X), math.Abs(p.Y-f.winCenter.Y))
		if (maxRange+d)*(1+0x1p-49) <= f.winReach {
			obstacles, states = f.winObstacles, f.winStates
		}
	}
	f.visits += int64(len(states))
	return obstacles, states
}

// VisibleObstaclesInto appends to dst (reusing its capacity) the obstacles
// within maxRange and ±fov/2 of the pose's heading, nearest first.
// The world holds no scratch and samples every trajectory on every call;
// what remembers an instant is the vehicle's Frame.
func (w *World) VisibleObstaclesInto(dst []Detection, p Pose, t time.Duration, maxRange, fov float64) []Detection {
	return visibleInto(dst, w.Obstacles, nil, p, t, maxRange, fov)
}

// VisibleObstaclesInto is World.VisibleObstaclesInto over the samples at t.
func (f *Frame) VisibleObstaclesInto(dst []Detection, p Pose, t time.Duration, maxRange, fov float64) []Detection {
	obstacles, states := f.view(p.Pos, t, maxRange)
	return visibleInto(dst, obstacles, states, p, t, maxRange, fov)
}

// sample returns obstacle i's state at t: the frame's, or with nil states
// (the frame-less World methods) a fresh evaluation. Small enough to inline.
func sample(o *Obstacle, states []ObstacleState, i int, t time.Duration) (s ObstacleState) {
	if states != nil {
		return states[i]
	}
	s.Pos, s.Vel = o.Traj(t)
	return s
}

// visibleInto is the one loop behind both VisibleObstaclesInto methods,
// over every obstacle or a frame's window. It (like its two siblings)
// rejects on the longer axis before taking the Hypot: math.Hypot(x, y) ≥
// max(|x|, |y|) in floating point, NaN on either side failing both tests
// (FuzzHypotLowerBound), so r > maxRange would reject the same obstacles.
func visibleInto(dst []Detection, obstacles []*Obstacle, states []ObstacleState, p Pose, t time.Duration, maxRange, fov float64) []Detection {
	out := dst
	for i, o := range obstacles {
		s := sample(o, states, i, t)
		rel := s.Pos.Sub(p.Pos)
		if max(math.Abs(rel.X), math.Abs(rel.Y)) > maxRange {
			continue
		}
		r := rel.Norm()
		if r > maxRange || r == 0 {
			continue
		}
		bearing := mathx.WrapAngle(rel.Angle() - p.Heading)
		if math.Abs(bearing) > fov/2 {
			continue
		}
		out = append(out, Detection{Obstacle: o, Pos: s.Pos, Vel: s.Vel, Range: r, Bearing: bearing})
	}
	// Insertion sort by range; obstacle counts are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Range < out[j-1].Range; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NearestAhead returns the nearest visible obstacle within a narrow
// forward cone (the reactive path's radar/sonar view). ok is false when
// nothing is in view. It tracks the minimum inline — no candidate list —
// because the reactive path polls it tens of times per control cycle.
func (w *World) NearestAhead(p Pose, t time.Duration, maxRange, fov float64) (Detection, bool) {
	return nearestAhead(w.Obstacles, nil, p, t, maxRange, fov)
}

// NearestAhead is World.NearestAhead over the frame's samples at t.
func (f *Frame) NearestAhead(p Pose, t time.Duration, maxRange, fov float64) (Detection, bool) {
	obstacles, states := f.view(p.Pos, t, maxRange)
	return nearestAhead(obstacles, states, p, t, maxRange, fov)
}

func nearestAhead(obstacles []*Obstacle, states []ObstacleState, p Pose, t time.Duration, maxRange, fov float64) (Detection, bool) {
	var best Detection
	found := false
	for i, o := range obstacles {
		s := sample(o, states, i, t)
		rel := s.Pos.Sub(p.Pos)
		if max(math.Abs(rel.X), math.Abs(rel.Y)) > maxRange {
			continue
		}
		r := rel.Norm()
		if r > maxRange || r == 0 {
			continue
		}
		bearing := mathx.WrapAngle(rel.Angle() - p.Heading)
		if math.Abs(bearing) > fov/2 {
			continue
		}
		if !found || r < best.Range {
			best = Detection{Obstacle: o, Pos: s.Pos, Vel: s.Vel, Range: r, Bearing: bearing}
			found = true
		}
	}
	return best, found
}

// SceneComplexity returns a [0,1] score of how dynamic the scene is around
// the pose: the fraction of a saturation count of moving objects in view.
// The latency models use it (dynamic scenes extract new features in every
// frame, slowing localization — Sec. V-C).
func (w *World) SceneComplexity(p Pose, t time.Duration) float64 {
	return sceneComplexity(w.Obstacles, nil, p, t)
}

// SceneComplexity is World.SceneComplexity over the frame's samples at t.
func (f *Frame) SceneComplexity(p Pose, t time.Duration) float64 {
	obstacles, states := f.view(p.Pos, t, complexityRange)
	return sceneComplexity(obstacles, states, p, t)
}

// complexityRange is how far the complexity model looks.
const complexityRange = 40.0

func sceneComplexity(obstacles []*Obstacle, states []ObstacleState, p Pose, t time.Duration) float64 {
	const saturation = 6.0
	const maxRange, fov = complexityRange, math.Pi
	moving := 0
	for i, o := range obstacles {
		s := sample(o, states, i, t)
		rel := s.Pos.Sub(p.Pos)
		if max(math.Abs(rel.X), math.Abs(rel.Y)) > maxRange {
			continue
		}
		r := rel.Norm()
		if r > maxRange || r == 0 {
			continue
		}
		if math.Abs(mathx.WrapAngle(rel.Angle()-p.Heading)) > fov/2 {
			continue
		}
		if s.Vel.Norm() > 0.2 {
			moving++
		}
	}
	return mathx.Clamp(float64(moving)/saturation, 0, 1)
}

// LandmarksInFOV returns the indices of landmarks visible from the pose
// (camera at 1.2 m height is approximated by ignoring elevation limits)
// within maxRange and the horizontal field of view.
func (w *World) LandmarksInFOV(p Pose, maxRange, fov float64) []int {
	var out []int
	for i, lm := range w.Landmarks {
		rel := lm.XY().Sub(p.Pos)
		r := rel.Norm()
		if r > maxRange || r < 0.5 {
			continue
		}
		if math.Abs(mathx.WrapAngle(rel.Angle()-p.Heading)) > fov/2 {
			continue
		}
		out = append(out, i)
	}
	return out
}

// NewCorridor builds a straight two-lane corridor world of the given length
// with landmark posts alternating on both sides, suitable for VIO runs.
func NewCorridor(length float64, rng *sim.RNG) *World {
	w := &World{
		Lanes: []Lane{{Start: mathx.Vec2{}, End: mathx.Vec2{X: length}, Width: 3}},
	}
	for x := 2.0; x < length; x += 3 {
		side := 4.0
		if int(x/3)%2 == 0 {
			side = -4.0
		}
		w.Landmarks = append(w.Landmarks,
			mathx.Vec3{X: x + rng.Uniform(-0.5, 0.5), Y: side + rng.Uniform(-1, 1), Z: rng.Uniform(0.5, 3)})
	}
	return w
}

// AddCutInPedestrian places a pedestrian that steps into the lane at
// triggerTime, crossing at crossSpeed m/s, positioned atX meters down the
// corridor. Returns the obstacle for inspection.
func (w *World) AddCutInPedestrian(atX float64, triggerTime time.Duration, crossSpeed float64) *Obstacle {
	o := &Obstacle{
		ID:     len(w.Obstacles) + 1,
		Kind:   KindPedestrian,
		Radius: 0.3,
		Traj:   LinearTrajectory(mathx.Vec2{X: atX, Y: -3}, mathx.Vec2{Y: crossSpeed}, triggerTime),
	}
	w.Obstacles = append(w.Obstacles, o)
	return o
}

// SuddenObstacleRadius is the footprint of the sudden obstacle: a vehicle
// pulled across the lane, too wide to steer around inside the corridor —
// the avoidance outcome then depends purely on distance vs. reaction
// latency, matching Eq. 1's braking-only analysis.
const SuddenObstacleRadius = 2.0

// AddSuddenObstacle places an obstacle that materializes at pos at
// triggerTime (before that it sits far out of any sensor's range) — the
// worst-case "new event sensed" of the Eq. 1 latency analysis.
func (w *World) AddSuddenObstacle(pos mathx.Vec2, triggerTime time.Duration) *Obstacle {
	hidden := mathx.Vec2{X: pos.X, Y: -1000}
	o := &Obstacle{
		ID:     len(w.Obstacles) + 1,
		Kind:   KindVehicle,
		Radius: SuddenObstacleRadius,
		Traj: func(t time.Duration) (mathx.Vec2, mathx.Vec2) {
			if t < triggerTime {
				return hidden, mathx.Vec2{}
			}
			return pos, mathx.Vec2{}
		},
	}
	w.Obstacles = append(w.Obstacles, o)
	return o
}

// AddStaticObstacle places a static obstacle.
func (w *World) AddStaticObstacle(pos mathx.Vec2, radius float64) *Obstacle {
	o := &Obstacle{ID: len(w.Obstacles) + 1, Kind: KindStatic, Radius: radius,
		Traj: StaticTrajectory(pos)}
	w.Obstacles = append(w.Obstacles, o)
	return o
}

// NewRing builds a circular-course world: landmark posts line both sides of
// a ring of the given centerline radius (centered at the origin). Used by
// the constant-curvature localization experiments, where steady yaw rate
// exposes camera–IMU synchronization errors.
func NewRing(radius float64, rng *sim.RNG) *World {
	w := &World{}
	circumference := 2 * math.Pi * radius
	n := int(circumference / 2.5)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		for _, dr := range []float64{-5, 5} {
			r := radius + dr + rng.Uniform(-0.5, 0.5)
			w.Landmarks = append(w.Landmarks, mathx.Vec3{
				X: r * math.Cos(ang+rng.Uniform(-0.02, 0.02)),
				Y: r * math.Sin(ang+rng.Uniform(-0.02, 0.02)),
				Z: rng.Uniform(0.5, 3),
			})
		}
	}
	return w
}

// CampusLoop builds a rectangular loop world (a university-campus style
// deployment) with landmarks along all four legs and a few static planters.
func CampusLoop(side float64, rng *sim.RNG) *World {
	w := &World{}
	corners := []mathx.Vec2{{}, {X: side}, {X: side, Y: side}, {Y: side}}
	for i := range corners {
		a, b := corners[i], corners[(i+1)%4]
		w.Lanes = append(w.Lanes, Lane{Start: a, End: b, Width: 3})
		dir := b.Sub(a)
		length := dir.Norm()
		dir = dir.Scale(1 / length)
		normal := mathx.Vec2{X: -dir.Y, Y: dir.X}
		for s := 3.0; s < length; s += 4 {
			p := a.Add(dir.Scale(s)).Add(normal.Scale(4 + rng.Uniform(-1, 1)))
			w.Landmarks = append(w.Landmarks, mathx.Vec3{X: p.X, Y: p.Y, Z: rng.Uniform(0.5, 3)})
		}
	}
	w.AddStaticObstacle(mathx.Vec2{X: side / 2, Y: -1}, 0.5)
	return w
}
