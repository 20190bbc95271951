package fleet

import (
	"sov/internal/obs"
	"sov/internal/telemetry"
)

// Cloud uplink: when Config.Cloud is set, observe hands the epoch to
// uplink, which emits one telemetry event per fleet transition — halts,
// pickups, dropoffs and dispatch assignments from the epoch log, then per
// vehicle its collision and reactive-brake deltas and its epoch snapshot —
// and flushes them as one store batch. Both walks run on the serial
// barrier in fixed order, so the ingested byte stream (and therefore the
// store's on-disk state) is byte-identical for any -workers count,
// matching the trace/metrics determinism contract (DESIGN.md §11, §14).

// stateNames renders vehState for epoch-snapshot payloads.
var stateNames = [...]string{"idle", "to-pickup", "on-trip", "charging", "halted"}

// emit queues one event of u at this barrier with the payload built in the
// fleet's scratch; Add copies it, so the scratch is reused.
func (f *Fleet) emit(u *unit, kind telemetry.Kind, payload *obs.JSONObj) {
	f.cloud.Add(uint32(u.id), f.epochEnd, kind, payload.Close())
}

// uplink emits the epoch's events in the order the barrier produced them,
// then flushes (one WAL record per epoch).
func (f *Fleet) uplink() {
	for _, t := range f.log {
		u := f.units[t.vehicle]
		p := f.payload.Reset()
		switch t.kind {
		case telemetry.KindHalt:
			p.Fixed("soc", u.soc, 4).Fixed("odo_m", u.odo, 1)
		case telemetry.KindPickup:
			p.Int("rider", t.rider).Fixed("wait_s", t.value, 2)
		case telemetry.KindDropoff:
			p.Int("rider", t.rider).Fixed("trip_s", t.value, 2)
		case telemetry.KindAssign:
			p.Int("rider", t.rider).Fixed("dist_m", t.value, 1)
		}
		f.emit(u, t.kind, p)
	}
	for _, u := range f.units {
		if d := u.sov.CollisionCount() - u.prevColl; d > 0 {
			u.prevColl += d
			f.emit(u, telemetry.KindCollision, f.payload.Reset().Int("n", int64(d)))
		}
		if d := u.sov.ReactiveCount() - u.prevReact; d > 0 {
			u.prevReact += d
			f.emit(u, telemetry.KindReactiveBrake, f.payload.Reset().Int("n", int64(d)))
		}
		f.emit(u, telemetry.KindEpoch, f.payload.Reset().
			Fixed("soc", u.soc, 4).
			Fixed("odo_m", u.odo, 1).
			Str("state", stateNames[u.state]).
			Int("trips", u.trips))
	}
	// A store error halts the uplink (the simulation itself keeps running)
	// and is surfaced via CloudErr.
	if err := f.cloud.Flush(); err != nil && f.cloudErr == nil {
		f.cloudErr = err
		f.cloud = nil
	}
}

// CloudErr reports the first telemetry-uplink failure, if any.
func (f *Fleet) CloudErr() error { return f.cloudErr }
