package fusion

import (
	"math"
	"testing"
	"time"

	"sov/internal/detect"
	"sov/internal/mathx"
	"sov/internal/track"
)

func det(x, y float64, id int) detect.Object {
	return detect.Object{ID: id, Pos: mathx.Vec2{X: x, Y: y}, Range: math.Hypot(x, y)}
}

func rtr(x, y float64, vx, vy float64, id int) track.RadarTrack {
	return track.RadarTrack{ID: id, Pos: mathx.Vec2{X: x, Y: y}, Vel: mathx.Vec2{X: vx, Y: vy}}
}

// detAt and rtrAt place a detection and a radar track at vehicle-frame x,
// y: each sensor reports it relative to its own mount.
func detAt(x, y float64, id int) detect.Object { return det(x-cameraMountX, y, id) }

func rtrAt(x, y float64, vx, vy float64, id int) track.RadarTrack {
	return rtr(x-radarMountX, y, vx, vy, id)
}

func spatialSync(dets []detect.Object, tracks []track.RadarTrack) ([]Match, []detect.Object, []track.RadarTrack) {
	return new(SyncScratch).SpatialSyncInto(DefaultSpatialSyncConfig(), dets, tracks)
}

func TestSpatialSyncMatchesProjectedTargets(t *testing.T) {
	// Vehicle-frame target at (12, 1): camera sees it at (11.2, 1),
	// radar at (10, 1) in their own mount frames.
	dets := []detect.Object{det(11.2, 1, 1)}
	tracks := []track.RadarTrack{rtr(10, 1, -2, 0, 5)}
	matches, ud, ut := spatialSync(dets, tracks)
	if len(matches) != 1 || len(ud) != 0 || len(ut) != 0 {
		t.Fatalf("matches=%d ud=%d ut=%d", len(matches), len(ud), len(ut))
	}
	m := matches[0]
	if d := m.Detection.Pos.Add(mathx.Vec2{X: cameraMountX}).DistTo(m.Track.Pos.Add(mathx.Vec2{X: radarMountX})); d > 0.01 {
		t.Fatalf("projection residual = %v, want ~0", d)
	}
}

func TestSpatialSyncGreedyUniqueAssignment(t *testing.T) {
	// Two detections near one track: only the closest pairs.
	dets := []detect.Object{detAt(10, 0, 1), detAt(10.5, 0, 2)}
	tracks := []track.RadarTrack{rtrAt(10.1, 0, 0, 0, 5)}
	matches, ud, _ := spatialSync(dets, tracks)
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	if matches[0].Detection.ID != 1 {
		t.Fatalf("matched det %d, want 1 (closest)", matches[0].Detection.ID)
	}
	if len(ud) != 1 || ud[0].ID != 2 {
		t.Fatalf("unmatched = %+v", ud)
	}
}

func TestSpatialSyncGateRejectsFar(t *testing.T) {
	dets := []detect.Object{detAt(10, 0, 1)}
	tracks := []track.RadarTrack{rtrAt(10, 5, 0, 0, 5)}
	matches, ud, ut := spatialSync(dets, tracks)
	if len(matches) != 0 || len(ud) != 1 || len(ut) != 1 {
		t.Fatalf("gate failed: m=%d ud=%d ut=%d", len(matches), len(ud), len(ut))
	}
}

func TestFuseAllVelocityTransfer(t *testing.T) {
	dets := []detect.Object{detAt(10, 0, 1), detAt(20, 3, 2)}
	tracks := []track.RadarTrack{rtrAt(10, 0, -3, 0, 5)}
	m, ud, _ := spatialSync(dets, tracks)
	fused := FuseAllInto(nil, m, ud)
	if len(fused) != 2 || len(m) != 1 {
		t.Fatalf("fused = %d from %d matches", len(fused), len(m))
	}
	radarObj, visionObj := fused[0], fused[1] // matches come first
	if visionObj.Velocity != (mathx.Vec2{}) {
		t.Fatalf("unmatched detection got a velocity: %+v", visionObj)
	}
	if radarObj.Velocity.X != -3 {
		t.Fatalf("radar velocity not transferred: %v", radarObj.Velocity)
	}
}

func TestSpatialSyncOperationCount(t *testing.T) {
	// The paper: spatial synchronization is ~100× cheaper than KCF. The
	// benchmark pair in bench_test.go measures the wall-clock ratio; here
	// we sanity-check it completes instantly on a realistic load.
	var dets []detect.Object
	var tracks []track.RadarTrack
	for i := 0; i < 10; i++ {
		dets = append(dets, det(10+float64(i), float64(i%3), i))
		tracks = append(tracks, rtr(8.8+float64(i), float64(i%3), -1, 0, i))
	}
	var sc SyncScratch
	start := time.Now()
	for i := 0; i < 1000; i++ {
		sc.SpatialSyncInto(DefaultSpatialSyncConfig(), dets, tracks)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("spatial sync too slow: %v for 1000 iterations", el)
	}
}
