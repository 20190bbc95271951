package sensors

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

// Mount places a sensor on the vehicle body: an offset in the vehicle frame
// and a facing bearing relative to the vehicle heading.
type Mount struct {
	Name    string
	Offset  mathx.Vec2
	Bearing float64
}

// sensorPose composes the vehicle pose with the mount.
func (m Mount) sensorPose(p world.Pose) world.Pose {
	return world.Pose{
		Pos:     p.Pos.Add(m.Offset.Rotate(p.Heading)),
		Heading: mathx.WrapAngle(p.Heading + m.Bearing),
	}
}

// RadarRig is the deployed 6-radar arrangement: two forward, one per side,
// two rear (Table I). The scratch buffers make a rig single-threaded: scans
// must stay on one goroutine (in the SoV, the simulation-engine thread,
// which also keeps the per-unit RNG draw order deterministic).
type RadarRig struct {
	Units  []*Radar
	Mounts []Mount

	unitScratch   []RadarReturn // per-unit echoes, reused across scans
	sectorScratch []RigReturn   // NearestInSector's merged-scan buffer

	stats RigStats
}

// RigStats counts a radar rig's activity for the telemetry layer. Scans
// and echoes advance in virtual-time order (the rig is engine-thread-only),
// so the counters are deterministic for a fixed scenario.
type RigStats struct {
	// Scans counts per-unit radar scans (each ScanAllInto sweeps every unit).
	Scans int64
	// Echoes counts merged vehicle-frame returns produced.
	Echoes int64
	// SectorQueries counts NearestInSector evaluations (the reactive path).
	SectorQueries int64
}

// Stats returns the rig's activity counters.
func (r *RadarRig) Stats() RigStats { return r.stats }

// NewRadarRig builds the rig over a world; each unit gets its own RNG
// stream and all six look through one obstacle frame.
func NewRadarRig(w *world.World, rng *sim.RNG) *RadarRig {
	mounts := []Mount{
		{Name: "front-left", Offset: mathx.Vec2{X: 2.0, Y: 0.4}, Bearing: 0.15},
		{Name: "front-right", Offset: mathx.Vec2{X: 2.0, Y: -0.4}, Bearing: -0.15},
		{Name: "side-left", Offset: mathx.Vec2{X: 0.5, Y: 0.8}, Bearing: math.Pi / 2},
		{Name: "side-right", Offset: mathx.Vec2{X: 0.5, Y: -0.8}, Bearing: -math.Pi / 2},
		{Name: "rear-left", Offset: mathx.Vec2{X: -1.5, Y: 0.4}, Bearing: math.Pi - 0.15},
		{Name: "rear-right", Offset: mathx.Vec2{X: -1.5, Y: -0.4}, Bearing: -(math.Pi - 0.15)},
	}
	rig := &RadarRig{Mounts: mounts}
	for range mounts {
		rig.Units = append(rig.Units, NewRadar(w, rng.Fork()))
	}
	rig.UseFrame(world.NewFrame(w))
	return rig
}

// UseFrame points every unit at f, sharing samples with f's other users.
func (r *RadarRig) UseFrame(f *world.Frame) {
	for _, u := range r.Units {
		u.Frame = f
	}
}

// RigReturn is a radar return expressed in the vehicle frame.
type RigReturn struct {
	Unit string
	RadarReturn
	// VehicleBearing is the target bearing in the vehicle frame.
	VehicleBearing float64
	// VehiclePos is the target position in the vehicle frame.
	VehiclePos mathx.Vec2
}

// ScanAllInto scans every unit and appends the returns, merged into the
// vehicle frame, to dst (reusing its capacity).
func (r *RadarRig) ScanAllInto(dst []RigReturn, t time.Duration, pose world.Pose) []RigReturn {
	base := len(dst)
	r.stats.Scans += int64(len(r.Units))
	for i, u := range r.Units {
		m := r.Mounts[i]
		sp := m.sensorPose(pose)
		r.unitScratch = u.ScanAtInto(r.unitScratch[:0], t, sp)
		for _, ret := range r.unitScratch {
			// Target position in the vehicle frame: sensor offset plus
			// the polar return rotated by the mount bearing.
			rel := mathx.Vec2{
				X: ret.Range * math.Cos(ret.Bearing),
				Y: ret.Range * math.Sin(ret.Bearing),
			}.Rotate(m.Bearing).Add(m.Offset)
			dst = append(dst, RigReturn{
				Unit:           m.Name,
				RadarReturn:    ret,
				VehicleBearing: rel.Angle(),
				VehiclePos:     rel,
			})
		}
	}
	r.stats.Echoes += int64(len(dst) - base)
	return dst
}

// NearestInSector returns the closest vehicle-frame return whose bearing
// falls inside ±halfWidth of center, and whether one exists. The reactive
// path uses the forward sector; a parking assist would use the rear.
func (r *RadarRig) NearestInSector(t time.Duration, pose world.Pose, center, halfWidth float64) (RigReturn, bool) {
	r.stats.SectorQueries++
	best := RigReturn{}
	found := false
	bestD := math.Inf(1)
	r.sectorScratch = r.ScanAllInto(r.sectorScratch[:0], t, pose)
	for _, ret := range r.sectorScratch {
		if math.Abs(mathx.WrapAngle(ret.VehicleBearing-center)) > halfWidth {
			continue
		}
		d := ret.VehiclePos.Norm()
		if d < bestD {
			bestD = d
			best = ret
			found = true
		}
	}
	return best, found
}

// SonarRig is the deployed 8-sonar ring (Table I): short-range coverage
// around the full body.
type SonarRig struct {
	Units  []*Sonar
	Mounts []Mount
}

// NewSonarRig builds the 8-unit ring over one obstacle frame.
func NewSonarRig(w *world.World, rng *sim.RNG) *SonarRig {
	rig := &SonarRig{}
	for i := 0; i < 8; i++ {
		ang := 2 * math.Pi * float64(i) / 8
		rig.Mounts = append(rig.Mounts, Mount{
			Name:    "sonar-" + string(rune('a'+i)),
			Offset:  mathx.Vec2{X: 1.2 * math.Cos(ang), Y: 1.2 * math.Sin(ang)},
			Bearing: ang,
		})
		rig.Units = append(rig.Units, NewSonar(w, rng.Fork()))
	}
	rig.UseFrame(world.NewFrame(w))
	return rig
}

// UseFrame points every unit at f (see RadarRig.UseFrame).
func (r *SonarRig) UseFrame(f *world.Frame) {
	for _, u := range r.Units {
		u.Frame = f
	}
}

// NearestInSector pings all units facing within ±halfWidth of center and
// returns the closest valid range (measured from the vehicle origin).
func (r *SonarRig) NearestInSector(t time.Duration, pose world.Pose, center, halfWidth float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	for i, u := range r.Units {
		m := r.Mounts[i]
		if math.Abs(mathx.WrapAngle(m.Bearing-center)) > halfWidth {
			continue
		}
		ping := u.PingAt(t, m.sensorPose(pose))
		if !ping.Valid {
			continue
		}
		d := ping.Range + m.Offset.Norm()*math.Cos(mathx.WrapAngle(m.Bearing-center))
		if d < best {
			best = d
			found = true
		}
	}
	return best, found
}
