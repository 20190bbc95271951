package track

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sensors"
)

// RadarTrack is one maintained target trajectory in the vehicle frame.
type RadarTrack struct {
	ID       int
	Pos      mathx.Vec2 // vehicle frame
	Vel      mathx.Vec2 // vehicle frame estimate
	LastSeen time.Duration
}

// RadarTracker combines consecutive radar returns of the same target into
// trajectories (the paper: "Radars directly measure the relative radial
// velocity of an object and combine consecutive observations of the same
// target into a trajectory"). Association is nearest-neighbor with a
// Euclidean gate; state update is an alpha-beta filter.
type RadarTracker struct {
	// Gate is the association distance in meters.
	Gate float64
	// Alpha/Beta are the filter gains.
	Alpha, Beta float64
	// MaxAge drops tracks not seen for this long.
	MaxAge time.Duration

	tracks []RadarTrack
	nextID int
	used   []bool // association scratch, reused across scans
}

// NewRadarTracker returns a tracker with field-typical gains.
func NewRadarTracker() *RadarTracker {
	return &RadarTracker{Gate: 2.0, Alpha: 0.6, Beta: 0.2, MaxAge: 500 * time.Millisecond}
}

// ObserveInto ingests one radar scan taken at time t (returns in polar
// vehicle-frame coordinates) and appends the live tracks to dst (grown as
// needed). The association scratch is kept on the tracker, so a warm steady
// state allocates nothing.
func (rt *RadarTracker) ObserveInto(t time.Duration, returns []sensors.RadarReturn, dst []RadarTrack) []RadarTrack {
	if cap(rt.used) < len(returns) {
		rt.used = make([]bool, len(returns))
	}
	used := rt.used[:len(returns)]
	for j := range used {
		used[j] = false
	}
	// Update existing tracks with the nearest gated return.
	for i := range rt.tracks {
		tr := &rt.tracks[i]
		bestJ := -1
		bestD := rt.Gate
		for j, r := range returns {
			if used[j] {
				continue
			}
			p := polar(r.Range, r.Bearing)
			if d := p.DistTo(tr.Pos); d < bestD {
				bestD = d
				bestJ = j
			}
		}
		if bestJ < 0 {
			continue
		}
		used[bestJ] = true
		r := returns[bestJ]
		meas := polar(r.Range, r.Bearing)
		dt := (t - tr.LastSeen).Seconds()
		if dt <= 0 {
			dt = 1e-3
		}
		// Alpha-beta update.
		pred := tr.Pos.Add(tr.Vel.Scale(dt))
		resid := meas.Sub(pred)
		tr.Pos = pred.Add(resid.Scale(rt.Alpha))
		tr.Vel = tr.Vel.Add(resid.Scale(rt.Beta / dt))
		tr.LastSeen = t
	}
	// Start new tracks for unassociated returns.
	for j, r := range returns {
		if used[j] {
			continue
		}
		rt.nextID++
		losUnit := polar(1, r.Bearing)
		rt.tracks = append(rt.tracks, RadarTrack{
			ID:       rt.nextID,
			Pos:      polar(r.Range, r.Bearing),
			Vel:      losUnit.Scale(r.RadialVel), // radial component seeds velocity
			LastSeen: t,
		})
	}
	// Expire stale tracks.
	n := 0
	for _, tr := range rt.tracks {
		if t-tr.LastSeen <= rt.MaxAge {
			rt.tracks[n] = tr
			n++
		}
	}
	rt.tracks = rt.tracks[:n]
	return append(dst, rt.tracks...)
}

func polar(r, bearing float64) mathx.Vec2 {
	return mathx.Vec2{X: r * math.Cos(bearing), Y: r * math.Sin(bearing)}
}
