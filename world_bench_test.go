// The obstacle-query layer on its own: what one vehicle asks the world in
// one 100 ms control period, through the vehicle's frame and through the
// frame-less World methods. `go run ./benchmark` sees this layer only as a
// share of `traffic`; this number does not move with the linker.
package sov

import (
	"math"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/detect"
	"sov/internal/mathx"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/world"
)

// worldQuery is one question a control period asks: a cone view (radar
// unit, camera detector), a nearest-ahead ping (sonar), the complexity
// model, or the physics step's sweep over every obstacle; or the window a
// radar sweep sets before its six views (maxRange is its reach).
type worldQuery struct {
	kind          byte // 'v' view, 'n' nearest, 'c' complexity, 'p' physics sweep, 'w' window
	at            time.Duration
	pose          world.Pose
	maxRange, fov float64
}

// controlPeriodQueries lists the period starting at t0 in the order
// core.SoV's engine fires it with the default rates: a physics sweep every
// 10 ms; at t0 a six-unit radar sweep, the complexity model and the
// detector's view; every 20 ms the reactive path's six-unit sweep and
// forward sonar sector. Each sweep starts with the window
// RadarRig.ScanAllInto sets.
func controlPeriodQueries(t0 time.Duration, radar *sensors.RadarRig, sonar *sensors.SonarRig) []worldQuery {
	cfg := core.DefaultConfig()
	mounted := func(m sensors.Mount, p world.Pose) world.Pose {
		return world.Pose{Pos: p.Pos.Add(m.Offset.Rotate(p.Heading)), Heading: mathx.WrapAngle(p.Heading + m.Bearing)}
	}
	every := func(hz float64) time.Duration { return time.Duration(float64(time.Second) / hz) }
	var qs []worldQuery
	for at := t0; at < t0+every(cfg.ControlRate); at += every(cfg.PhysicsRate) {
		pose := world.Pose{Pos: mathx.Vec2{X: cfg.TargetSpeed * at.Seconds()}}
		sweep := func() {
			qs = append(qs, worldQuery{kind: 'w', at: at, pose: pose, maxRange: sensors.SweepReach(radar.Mounts)})
			for _, m := range radar.Mounts {
				qs = append(qs, worldQuery{'v', at, mounted(m, pose), sensors.RadarMaxRange, sensors.RadarFOV})
			}
		}
		qs = append(qs, worldQuery{kind: 'p', at: at, pose: pose})
		if at == t0 {
			sweep()
			qs = append(qs, worldQuery{kind: 'c', at: at, pose: pose})
			qs = append(qs, worldQuery{'v', at, pose, detect.MaxRange, detect.FOV})
		}
		if (at-t0)%every(cfg.ReactiveRate) == 0 {
			sweep()
			for _, m := range sonar.Mounts {
				if math.Abs(mathx.WrapAngle(m.Bearing)) <= 0.5 {
					qs = append(qs, worldQuery{'n', at, mounted(m, pose), sensors.SonarMaxRange, sensors.SonarFOV})
				}
			}
		}
	}
	return qs
}

// obstacleView is what *world.World (frame-less) and *world.Frame both
// offer the sensors.
type obstacleView interface {
	VisibleObstaclesInto(dst []world.Detection, p world.Pose, t time.Duration, maxRange, fov float64) []world.Detection
	NearestAhead(p world.Pose, t time.Duration, maxRange, fov float64) (world.Detection, bool)
	SceneComplexity(p world.Pose, t time.Duration) float64
}

var worldQuerySink float64

// BenchmarkWorldQueries runs consecutive control periods of the dense
// DynamicTrafficScenario block (84 pedestrians on the corridor) and reports
// ns/op per period, the Trajectory evaluations one period costs and the
// obstacles its queries walk: `frame` is the path core.SoV runs, a window
// per radar sweep included, `world` the frame-less one every query took
// before the frame existed.
func BenchmarkWorldQueries(b *testing.B) {
	w := core.DynamicTrafficScenario(7)
	evals := 0
	for _, o := range w.Obstacles {
		traj := o.Traj
		o.Traj = func(at time.Duration) (mathx.Vec2, mathx.Vec2) { evals++; return traj(at) }
	}
	const periods = 600 // one virtual minute from the head of the heavy block
	// The rigs are read for their mounts only.
	rng := sim.NewRNG(1)
	radar, sonar := sensors.NewRadarRig(w, rng), sensors.NewSonarRig(w, rng)
	var qs [periods][]worldQuery
	for i := range qs {
		qs[i] = controlPeriodQueries(90*time.Second+time.Duration(i)*100*time.Millisecond, radar, sonar)
	}
	var dets []world.Detection
	queries, walks := 0, 0 // per period: questions, and those that walk obstacles
	for _, q := range qs[0] {
		switch q.kind {
		case 'v', 'n', 'c':
			walks++
			fallthrough
		case 'p':
			queries++
		}
	}
	// visits counts the obstacles the queries walked; nil means each of the
	// period's walks visits every obstacle.
	run := func(b *testing.B, view obstacleView, visits func() int64, window func(q worldQuery), sweep func(q worldQuery, minClear float64) float64) {
		evals = 0
		walked := int64(0)
		if visits != nil {
			walked = visits()
		}
		minClear := math.Inf(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs[i%periods] {
				switch q.kind {
				case 'w':
					window(q)
				case 'v':
					dets = view.VisibleObstaclesInto(dets[:0], q.pose, q.at, q.maxRange, q.fov)
					worldQuerySink += float64(len(dets))
				case 'n':
					d, _ := view.NearestAhead(q.pose, q.at, q.maxRange, q.fov)
					worldQuerySink += d.Range
				case 'c':
					worldQuerySink += view.SceneComplexity(q.pose, q.at)
				case 'p':
					minClear = sweep(q, minClear)
				}
			}
		}
		worldQuerySink += minClear
		b.ReportMetric(float64(queries), "queries/period")
		b.ReportMetric(float64(evals)/float64(b.N), "traj-evals/period")
		perPeriod := float64(walks) * float64(len(w.Obstacles))
		if visits != nil {
			perPeriod = float64(visits()-walked) / float64(b.N)
		}
		b.ReportMetric(perPeriod, "visits/period")
	}
	// The two physics sweeps are core.SoV.physicsStep's clearance loop after
	// and before the frame.
	b.Run("frame", func(b *testing.B) {
		f := world.NewFrame(w)
		window := func(q worldQuery) { f.Around(q.at, q.pose.Pos, q.maxRange) }
		run(b, f, f.Visits, window, func(q worldQuery, minClear float64) float64 {
			for i, s := range f.At(q.at) {
				d := q.pose.Pos.Sub(s.Pos)
				radius := w.Obstacles[i].Radius
				if far := max(math.Abs(d.X), math.Abs(d.Y)) - radius; far >= 0 && far >= minClear {
					continue
				}
				minClear = min(minClear, d.Norm()-radius)
			}
			return minClear
		})
	})
	b.Run("world", func(b *testing.B) {
		run(b, w, nil, func(worldQuery) {}, func(q worldQuery, minClear float64) float64 {
			for _, o := range w.Obstacles {
				pos, _ := o.At(q.at)
				minClear = min(minClear, q.pose.Pos.DistTo(pos)-o.Radius)
			}
			return minClear
		})
	})
}
