// Package fusion implements the radar half of the "augmenting computing
// with sensors" case studies of Sec. VI-B: spatial synchronization, which
// matches objects detected by vision with objects tracked by radar
// (replacing the compute-heavy KCF visual tracker) in ~1 ms, one to two
// orders of magnitude cheaper than the compute it displaces. The other half,
// GPS fixes fused into the VIO filter, is vio.UpdateGPS.
package fusion

import (
	"sort"

	"sov/internal/detect"
	"sov/internal/mathx"
	"sov/internal/track"
)

// Match pairs a vision detection with a radar track.
type Match struct {
	Detection detect.Object
	Track     track.RadarTrack
}

// SpatialSyncConfig tunes the matcher.
type SpatialSyncConfig struct {
	// MaxDistance gates a pairing, in meters after projection.
	MaxDistance float64
	// RadarMount is the radar's position offset in the vehicle frame
	// (the projection from radar coordinates to camera coordinates).
	RadarMount mathx.Vec2
	// CameraMount is the camera's position offset in the vehicle frame.
	CameraMount mathx.Vec2
}

// DefaultSpatialSyncConfig places the forward radar on the bumper and the
// stereo camera at the windshield.
func DefaultSpatialSyncConfig() SpatialSyncConfig {
	return SpatialSyncConfig{
		MaxDistance: 1.5,
		RadarMount:  mathx.Vec2{X: 2.0},
		CameraMount: mathx.Vec2{X: 0.8},
	}
}

// SpatialSync projects radar tracks into the camera frame and greedily
// matches them with vision detections by Euclidean distance (smallest cost
// first, each side used at most once). It returns the matches plus the
// unmatched leftovers from both sides. The entire operation is a few
// hundred arithmetic operations — the paper measures ~1 ms on the CPU,
// about 100× cheaper than running KCF.
func SpatialSync(cfg SpatialSyncConfig, dets []detect.Object, tracks []track.RadarTrack) (matches []Match, unmatchedDets []detect.Object, unmatchedTracks []track.RadarTrack) {
	type cand struct {
		di, ti int
		d      float64
	}
	var cands []cand
	for di, d := range dets {
		// Detection position is camera-relative; shift to vehicle frame.
		dPos := d.Pos.Add(cfg.CameraMount)
		for ti, tr := range tracks {
			// Track position is radar-relative; shift to vehicle frame.
			tPos := tr.Pos.Add(cfg.RadarMount)
			dist := dPos.DistTo(tPos)
			if dist <= cfg.MaxDistance {
				cands = append(cands, cand{di: di, ti: ti, d: dist})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	usedD := make([]bool, len(dets))
	usedT := make([]bool, len(tracks))
	for _, c := range cands {
		if usedD[c.di] || usedT[c.ti] {
			continue
		}
		usedD[c.di] = true
		usedT[c.ti] = true
		matches = append(matches, Match{Detection: dets[c.di], Track: tracks[c.ti]})
	}
	for i, d := range dets {
		if !usedD[i] {
			unmatchedDets = append(unmatchedDets, d)
		}
	}
	for i, tr := range tracks {
		if !usedT[i] {
			unmatchedTracks = append(unmatchedTracks, tr)
		}
	}
	return matches, unmatchedDets, unmatchedTracks
}

type syncCand struct {
	di, ti int
	d      float64
}

// SyncScratch holds the matcher's per-frame working buffers so a control
// loop can run spatial synchronization every cycle without allocating.
// The slices returned by SpatialSyncInto alias these buffers and stay
// valid until the next call with the same scratch.
type SyncScratch struct {
	cands           []syncCand
	usedD, usedT    []bool
	matches         []Match
	unmatchedDets   []detect.Object
	unmatchedTracks []track.RadarTrack
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// SpatialSyncInto is the reusing variant of SpatialSync. The candidate sort
// is an insertion sort on the matching cost — deterministic (and stable,
// which sort.Slice does not guarantee on ties), so results are reproducible
// bit-for-bit across runs and worker counts.
func (sc *SyncScratch) SpatialSyncInto(cfg SpatialSyncConfig, dets []detect.Object, tracks []track.RadarTrack) (matches []Match, unmatchedDets []detect.Object, unmatchedTracks []track.RadarTrack) {
	cands := sc.cands[:0]
	for di, d := range dets {
		// Detection position is camera-relative; shift to vehicle frame.
		dPos := d.Pos.Add(cfg.CameraMount)
		for ti, tr := range tracks {
			// Track position is radar-relative; shift to vehicle frame.
			tPos := tr.Pos.Add(cfg.RadarMount)
			dist := dPos.DistTo(tPos)
			if dist <= cfg.MaxDistance {
				cands = append(cands, syncCand{di: di, ti: ti, d: dist})
			}
		}
	}
	sc.cands = cands
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && cands[j-1].d > c.d {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}
	sc.usedD = growBools(sc.usedD, len(dets))
	sc.usedT = growBools(sc.usedT, len(tracks))
	sc.matches = sc.matches[:0]
	sc.unmatchedDets = sc.unmatchedDets[:0]
	sc.unmatchedTracks = sc.unmatchedTracks[:0]
	for _, c := range cands {
		if sc.usedD[c.di] || sc.usedT[c.ti] {
			continue
		}
		sc.usedD[c.di] = true
		sc.usedT[c.ti] = true
		sc.matches = append(sc.matches, Match{Detection: dets[c.di], Track: tracks[c.ti]})
	}
	for i, d := range dets {
		if !sc.usedD[i] {
			sc.unmatchedDets = append(sc.unmatchedDets, d)
		}
	}
	for i, tr := range tracks {
		if !sc.usedT[i] {
			sc.unmatchedTracks = append(sc.unmatchedTracks, tr)
		}
	}
	return sc.matches, sc.unmatchedDets, sc.unmatchedTracks
}

// FusedObject is the perception output after spatial synchronization: the
// vision detection's class and position with the radar track's velocity.
type FusedObject struct {
	Object detect.Object
	// Velocity is the radar-derived vehicle-frame velocity — the quantity
	// vision-only pipelines would need KCF across frames to estimate.
	Velocity mathx.Vec2
}

// FuseAllInto combines matches and leftovers into the perception output
// list, appended to dst (reusing its capacity): the matched objects first,
// carrying radar velocity, then the unmatched detections (velocity unknown,
// left to the KCF fallback path).
func FuseAllInto(dst []FusedObject, matches []Match, unmatchedDets []detect.Object) []FusedObject {
	for _, m := range matches {
		dst = append(dst, FusedObject{Object: m.Detection, Velocity: m.Track.Vel})
	}
	for _, d := range unmatchedDets {
		dst = append(dst, FusedObject{Object: d})
	}
	return dst
}
