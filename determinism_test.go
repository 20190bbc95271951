// The determinism contract (DESIGN.md §5): every figure, trace, report and
// store this repository writes is a pure function of its seed, whatever the
// worker count. TestDeterminism is that contract as one table. Each row runs
// a workload and returns its named artifacts; the harness runs every row at
// 1, 2 and 8 workers and compares each artifact's bytes with the first
// run's. A short list of relations then pins what must match, and what must
// differ, across rows.
package sov

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/detect"
	"sov/internal/fleet"
	"sov/internal/isp"
	"sov/internal/mathx"
	"sov/internal/nn"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/pointcloud"
	"sov/internal/sim"
	"sov/internal/telemetry"
	"sov/internal/vision"
)

// detRow is one workload of the determinism table.
type detRow struct {
	name string
	run  func(t *testing.T) map[string][]byte
}

// detWorkers are the worker counts every row runs at; the first is the
// reference.
var detWorkers = []int{1, 2, 8}

func TestDeterminism(t *testing.T) {
	ref := map[string]map[string][]byte{} // row → artifacts of its first run
	rows := detRows()
	// Rows run as subtests of their layer (kernels, core, fleet, telemetry),
	// so -run 'TestDeterminism/core' runs one layer.
	for len(rows) > 0 {
		layer, _, _ := strings.Cut(rows[0].name, "/")
		n := 1
		for n < len(rows) && strings.HasPrefix(rows[n].name, layer+"/") {
			n++
		}
		t.Run(layer, func(t *testing.T) {
			for _, row := range rows[:n] {
				t.Run(strings.TrimPrefix(row.name, layer+"/"), func(t *testing.T) {
					for _, w := range detWorkers {
						got := atWorkers(w, func() map[string][]byte { return row.run(t) })
						want, ok := ref[row.name]
						if !ok {
							ref[row.name] = got
							continue
						}
						var names []string
						for name := range merge(want, got) {
							names = append(names, name)
						}
						sort.Strings(names)
						for _, name := range names {
							if d := firstDiff(want[name], got[name]); d != "" {
								t.Errorf("row %s at %d workers: artifact %s departs from the %d-worker run at %s",
									row.name, w, name, detWorkers[0], d)
							}
						}
					}
				})
			}
		})
		rows = rows[n:]
	}
	t.Run("relations", func(t *testing.T) {
		trace := func(row string) []byte {
			if ref[row] == nil {
				t.Skipf("row %s did not run", row)
			}
			return ref[row]["trace"]
		}
		float, quant, sched, fleetFloat := trace("core/float"), trace("core/quant"), trace("core/sched"), trace("fleet/float")
		contended, rep := cruise(t, func(c *core.Config) { c.Sched, c.SchedMapping = true, "GPU/GPU" })
		if rep.Sched.Remaps < 1 || rep.Sched.Mapping != "GPU/FPGA" {
			t.Errorf("the scheduler started on GPU/GPU remapped %d times and ended on %s; want at least one remap, to GPU/FPGA",
				rep.Sched.Remaps, rep.Sched.Mapping)
		}
		seed8 := fleetRun(t, func(c *fleet.Config) { c.Seed = 8 })
		for _, r := range []struct {
			what string
			a, b []byte
			same bool
		}{
			// At the deployed point every scheduler multiplier is exactly 1.0.
			{"core/sched trace vs core/float", sched, float, true},
			{"core/quant trace vs core/float", quant, float, false},
			{"GPU/GPU-pinned sched trace vs core/sched", contended["trace"], sched, false},
			{"seed-8 fleet trace vs fleet/float", seed8["trace"], fleetFloat, false},
		} {
			switch d := firstDiff(r.b, r.a); {
			case r.same && d != "":
				t.Errorf("%s: want identical, they part at %s", r.what, d)
			case !r.same && d == "":
				t.Errorf("%s: want different, they are identical; the knob is inert", r.what)
			}
		}
	})
}

// detRows is the table: kernels that fan out over internal/parallel, the
// control loop, the fleet and the telemetry store.
func detRows() []detRow {
	return []detRow{
		{"kernels/stereo", func(t *testing.T) map[string][]byte {
			left, right := benchStereoPair(128, 96)
			return map[string][]byte{
				"block":          lines(vision.BlockMatch(left, right, 16, 2).D),
				"support-points": lines(vision.SupportPointStereo(left, right, 16, 2, 8, 3).D),
			}
		}},
		{"kernels/conv", func(t *testing.T) map[string][]byte {
			rng := rand.New(rand.NewSource(3))
			conv := nn.NewConv2D(8, 16, 3, 1, 1, true, rng)
			in := nn.NewTensor(8, 40, 40)
			for i := range in.Data {
				in.Data[i] = float32(rng.NormFloat64())
			}
			return map[string][]byte{"out": lines(conv.Forward(in).Data)}
		}},
		{"kernels/fft2d", func(t *testing.T) map[string][]byte {
			const n = 256
			rng := rand.New(rand.NewSource(5))
			data := make([]complex128, n*n)
			for i := range data {
				data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			if err := mathx.FFT2D(data, n, n, false); err != nil {
				t.Fatal(err)
			}
			return map[string][]byte{"out": lines(data)}
		}},
		{"kernels/icp", func(t *testing.T) map[string][]byte {
			scan := pointcloud.GenerateScan(3000, 55, sim.NewRNG(17).Fork())
			moved := scan.Transform(0.02, mathx.Vec3{X: 0.25, Y: -0.1})
			tree := pointcloud.Build(scan, nil)
			res := pointcloud.Localize(tree, moved, nil, 10, 1)
			return map[string][]byte{
				"pose":    fmt.Appendf(nil, "%+v\n", res),
				"reuse":   lines(tree.Reuse),
				"normals": lines(pointcloud.EstimateNormals(tree, scan, nil, 8)),
			}
		}},
		{"kernels/yolo-int8", func(t *testing.T) map[string][]byte {
			calib, probe := nn.NewTensor(1, 48, 64), nn.NewTensor(1, 48, 64)
			for i := range calib.Data {
				calib.Data[i], probe.Data[i] = float32(i%13)/13, float32(i%7)/7
			}
			qy := nn.QuantizeYOLO(nn.NewTinyYOLO(48, 64, 3, 21), calib)
			raw := qy.ForwardRaw(probe)
			return map[string][]byte{
				"codes": lines(raw.Data),
				"boxes": lines(detect.DecodeQuantGridInto(nil, raw, qy.Classes, qy.LUT(), 0.3)),
			}
		}},
		{"kernels/stereo-int8", func(t *testing.T) map[string][]byte {
			left, right := quantStereoPair()
			var dm vision.DisparityMap
			vision.BlockMatchQuantInto(&dm, left, right, 16, 2, &vision.StereoScratch{})
			return map[string][]byte{"disparity": lines(dm.D)}
		}},
		{"kernels/isp-int8", func(t *testing.T) map[string][]byte {
			left, _ := quantStereoPair()
			out, blur := vision.NewQImage(left.W, left.H), vision.NewQImage(left.W, left.H)
			isp.Quantized().ProcessInto(out, blur, left)
			return map[string][]byte{"out": lines(out.Pix)}
		}},

		// One instrumented cruise each; the fleet rows below run the same
		// loop with lean reports, so together they cover float/quant ×
		// sched × lean/full.
		{"core/float", coreRow(func(*core.Config) {})},
		{"core/quant", coreRow(func(c *core.Config) { c.Quant = true })},
		{"core/sched", coreRow(func(c *core.Config) { c.Sched = true })},

		{"fleet/float", fleetRow(func(*fleet.Config) {})},
		{"fleet/quant", fleetRow(func(c *fleet.Config) { c.Vehicle.Quant = true })},
		{"fleet/sched", fleetRow(func(c *fleet.Config) { c.Vehicle.Sched = true })},
		{"fleet/cloud", func(t *testing.T) map[string][]byte {
			dir := t.TempDir()
			store := openStore(t, dir)
			art := fleetRun(t, func(c *fleet.Config) { c.Cloud = telemetry.NewIngestor(store) })
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			return merge(art, storeFiles(t, dir))
		}},

		{"telemetry/store", func(t *testing.T) map[string][]byte {
			dir := t.TempDir()
			s := openStore(t, dir)
			events := benchTelemetryEvents(30, 30)
			for off := 0; off < len(events); off += 170 {
				if err := s.Ingest(events[off:min(off+170, len(events))]); err != nil {
					t.Fatal(err)
				}
			}
			var rows bytes.Buffer
			q := telemetry.Query{VehicleMin: 5, VehicleMax: 25, TMinMs: 2000, TMaxMs: 25000}
			if _, err := s.WriteJSONL(&rows, q); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return merge(storeFiles(t, dir), map[string][]byte{"rows": rows.Bytes()})
		}},
	}
}

// atWorkers runs fn at n workers and restores the previous count.
func atWorkers[T any](n int, fn func() T) T {
	defer parallel.SetWorkers(parallel.SetWorkers(n))
	return fn()
}

// merge returns a's artifacts and b's in one map.
func merge(a, b map[string][]byte) map[string][]byte {
	m := maps.Clone(a)
	maps.Copy(m, b)
	return m
}

// lines renders one element per line, so a diff's line number is the
// element's index plus one. %v prints floats in their shortest round-trip
// form: equal text is equal bits.
func lines[T any](xs []T) []byte {
	var b []byte
	for _, x := range xs {
		b = fmt.Appendf(b, "%v\n", x)
	}
	return b
}

// quantStereoPair is the int8 kernels' input: the float stereo pair,
// quantized.
func quantStereoPair() (*vision.QImage, *vision.QImage) {
	left, right := benchStereoPair(128, 96)
	return vision.QuantizeImage(left), vision.QuantizeImage(right)
}

// cruise is sovsim's instrumented run (-trace, -metrics, -spans,
// -blackbox) for 30 s of virtual time on the default config after tweak.
func cruise(t *testing.T, tweak func(*core.Config)) (map[string][]byte, *core.Report) {
	cfg := core.DefaultConfig()
	tweak(&cfg)
	s := core.New(cfg, core.CruiseScenario(cfg.Seed))
	var trace, metrics, spans, box bytes.Buffer
	tr := core.NewTracer(&trace)
	s.AttachTracer(tr)
	reg := obs.NewRegistry()
	s.AttachMetrics(reg)
	sw := obs.NewSpanWriter(&spans)
	s.AttachSpans(sw)
	fr := obs.NewFlightRecorder(&box, 64, 3)
	s.AttachFlightRecorder(fr)
	rep := s.Run(30 * time.Second)
	for _, c := range []interface{ Close() (int, error) }{tr, sw, fr} {
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.WriteText(&metrics, false); err != nil {
		t.Fatal(err)
	}
	if rep.QuantizedPerception != cfg.Quant || (rep.Sched != nil) != cfg.Sched {
		t.Fatalf("report says quantized=%v, scheduler attached=%v; the config asked for %v, %v",
			rep.QuantizedPerception, rep.Sched != nil, cfg.Quant, cfg.Sched)
	}
	return map[string][]byte{
		"trace":    trace.Bytes(),
		"report":   []byte(rep.Render()),
		"metrics":  metrics.Bytes(),
		"spans":    spans.Bytes(),
		"blackbox": box.Bytes(),
	}, rep
}

func coreRow(tweak func(*core.Config)) func(*testing.T) map[string][]byte {
	return func(t *testing.T) map[string][]byte {
		art, _ := cruise(t, tweak)
		return art
	}
}

// fleetRun runs 24 reduced-rate vehicles with batched perception on two
// regions for 12 s of virtual time, with demand dense enough that riders
// arrive and are dispatched, and returns the trace, summary and metrics. A config with a
// cloud uplink gets what sovfleet -cloud adds: the metrics snapshot as the
// last event, then a flush.
func fleetRun(t *testing.T, tweak func(*fleet.Config)) map[string][]byte {
	cfg := fleet.DefaultConfig()
	cfg.Vehicles, cfg.Regions, cfg.Shards, cfg.Seed = 24, 2, 4, 7
	cfg.PerceptionEvery = 4
	cfg.DemandPerHour, cfg.TripMinM, cfg.TripMaxM = 1800, 30, 120
	cfg.Vehicle.ControlRate, cfg.Vehicle.PhysicsRate, cfg.Vehicle.ReactiveRate = 5, 25, 10
	tweak(&cfg)
	var trace, metrics bytes.Buffer
	cfg.Trace = &trace
	f := fleet.New(cfg)
	reg := obs.NewRegistry()
	f.AttachMetrics(reg)
	sum := f.Run(12 * time.Second)
	if err := reg.WriteText(&metrics, false); err != nil {
		t.Fatal(err)
	}
	if in := cfg.Cloud; in != nil {
		var snap bytes.Buffer
		if err := cmp.Or(f.CloudErr(), reg.WriteJSON(&snap)); err != nil {
			t.Fatal(err)
		}
		in.IngestMetrics(f.Now(), snap.Bytes())
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{"trace": trace.Bytes(), "summary": []byte(sum.Render()), "metrics": metrics.Bytes()}
}

func fleetRow(tweak func(*fleet.Config)) func(*testing.T) map[string][]byte {
	return func(t *testing.T) map[string][]byte { return fleetRun(t, tweak) }
}

// openStore opens a telemetry store with a small memtable, so a short run
// flushes and compacts.
func openStore(t *testing.T, dir string) *telemetry.Store {
	s, err := telemetry.Open(dir, telemetry.Options{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeFiles returns every file of a store directory as an artifact, plus
// a listing of names and sizes in which a missing or extra file shows.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	art := map[string][]byte{}
	var ls []byte
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		art["store/"+e.Name()] = b
		ls = fmt.Appendf(ls, "%s %d\n", e.Name(), len(b))
	}
	art["store"] = ls
	return art
}

// firstDiff is "" when got equals want. Otherwise it names the first line
// that differs, quotes both versions of it, and for a JSON line names the
// first key (in want's order) whose value differs.
func firstDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(ls []string) (text, shown string) {
		if i >= len(ls) {
			return "", "(past the end)"
		}
		return ls[i], fmt.Sprintf("%.200q", ls[i])
	}
	wl, ws := line(w)
	gl, gs := line(g)
	msg := fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, ws, gs)
	wk, wv := jsonFields(wl)
	_, gv := jsonFields(gl)
	for _, k := range wk {
		if v, ok := gv[k]; gv != nil && (!ok || v != wv[k]) {
			return msg + "\n  first differing key: " + k
		}
	}
	return msg
}

// jsonFields returns a JSON object's top-level keys in order and their raw
// values, or nils when line is not one.
func jsonFields(line string) ([]string, map[string]string) {
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil
	}
	var keys []string
	vals := map[string]string{}
	for dec.More() {
		tok, err := dec.Token()
		var v json.RawMessage
		if err != nil || dec.Decode(&v) != nil {
			return nil, nil
		}
		k := tok.(string)
		keys, vals[k] = append(keys, k), string(v)
	}
	return keys, vals
}
