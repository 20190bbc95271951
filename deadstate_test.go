package sov

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/fleet"
	"sov/internal/mathx"
	"sov/internal/obs"
	"sov/internal/sim"
	"sov/internal/world"
)

// metricScenario is one run the metric audit attaches a registry to.
type metricScenario struct {
	name string
	run  func(reg *obs.Registry)
}

// vehicleScenario runs one vehicle for d on the cruise scene or, when
// suddenM > 0, on a corridor where an obstacle appears when the vehicle's
// nominal schedule puts it suddenM short of it.
func vehicleScenario(name string, d time.Duration, suddenM float64, tweak func(*core.Config)) metricScenario {
	return metricScenario{name, func(reg *obs.Registry) {
		cfg := core.DefaultConfig()
		tweak(&cfg)
		w := core.CruiseScenario(cfg.Seed)
		if suddenM > 0 {
			w = world.NewCorridor(400, sim.NewRNG(7))
			appear := (120 - world.SuddenObstacleRadius - suddenM) / cfg.TargetSpeed
			w.AddSuddenObstacle(mathx.Vec2{X: 120}, time.Duration(appear*float64(time.Second)))
		}
		s := core.New(cfg, w)
		s.AttachMetrics(reg)
		s.Run(d)
	}}
}

// fleetScenario runs the fleet for d.
func fleetScenario(name string, d time.Duration, tweak func(*fleet.Config)) metricScenario {
	return metricScenario{name, func(reg *obs.Registry) {
		cfg := fleet.DefaultConfig()
		tweak(&cfg)
		f := fleet.New(cfg)
		f.AttachMetrics(reg)
		f.Run(d)
	}}
}

// metricScenarios are CI's smokes (sovsim default, -quant and -sched; the
// sovfleet smoke), shortened, plus the off-nominal scenes that move what
// the smokes leave at zero.
func metricScenarios() []metricScenario {
	return []metricScenario{
		vehicleScenario("sovsim", 30*time.Second, 0, func(*core.Config) {}),
		vehicleScenario("sovsim -quant", 30*time.Second, 0, func(c *core.Config) { c.Quant = true }),
		vehicleScenario("sovsim -sched", 30*time.Second, 0, func(c *core.Config) { c.Sched = true }),
		fleetScenario("sovfleet smoke", 10*time.Second, func(c *fleet.Config) {
			c.Vehicles, c.Regions, c.PerceptionEvery = 200, 4, 4
		}),
		// A hot enclosure and a contended start: the scheduler remaps and
		// switches operating point.
		vehicleScenario("sched under pressure", 90*time.Second, 0, func(c *core.Config) {
			c.Sched, c.SchedMapping, c.AmbientC = true, "GPU/GPU", 45
		}),
		// The same start in a cool enclosure: it remaps but keeps float.
		vehicleScenario("contended start", 30*time.Second, 0, func(c *core.Config) {
			c.Sched, c.SchedMapping = true, "GPU/GPU"
		}),
		// An obstacle inside the proactive envelope: the reactive path brakes.
		vehicleScenario("sudden obstacle", 30*time.Second, 4.5, func(*core.Config) {}),
		// One inside the braking floor: a collision.
		vehicleScenario("sudden obstacle, too close", 30*time.Second, 0.5, func(*core.Config) {}),
		// Dense demand for short trips on a small loop: trips complete and
		// riders queue.
		fleetScenario("busy fleet", 5*time.Minute, func(c *fleet.Config) {
			c.Vehicles, c.Regions, c.DemandPerHour = 16, 1, 2400
			c.RegionSideM, c.TripMinM, c.TripMaxM = 80, 40, 120
		}),
		// Nearly empty packs go to the charger.
		fleetScenario("drained fleet", 2*time.Minute, func(c *fleet.Config) {
			c.Vehicles, c.Regions = 4, 1
			c.InitialSoCMin, c.InitialSoCMax = 0, 0.05
		}),
		// With no charging, they die.
		fleetScenario("dead fleet", 2*time.Minute, func(c *fleet.Config) {
			c.Vehicles, c.Regions, c.RechargeSoC = 4, 1, 0
			c.InitialSoCMin, c.InitialSoCMax = 0, 0.005
		}),
	}
}

// faultCounters count faults no modeled configuration produces. They exist
// to make a fault visible, so they are held to the opposite rule: zero in
// every scenario above.
var faultCounters = map[string]bool{
	"sov_encode_errors_total": true, // a command canbus.EncodeCommand rejects
}

// TestEveryMetricMoves: every metric the programs register must read
// non-zero in some scenario, and differ between two scenarios that both
// register it. A metric that sits still across all of them reports nothing:
// give it a scenario that moves it, or delete it. Two counters that read the
// same in every scenario count one event twice: keep one, or add the
// scenario that separates them. The per-shard series
// (fleet_shard03_trips_total) are one family: which shard completes a trip
// is incidental. A fault counter must instead read zero everywhere.
func TestEveryMetricMoves(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the CI smokes")
	}
	values := map[string][]string{} // metric family → its values in each scenario that registers it
	where := map[string][]string{}  // the same, labeled with the scenario
	counters := map[string]bool{}
	shard := regexp.MustCompile(`shard[0-9]+`)
	for _, sc := range metricScenarios() {
		reg := obs.NewRegistry()
		sc.run(reg)
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var snap []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		for _, m := range snap {
			v := fmt.Sprint(m["value"])
			if m["kind"] == "histogram" {
				v = fmt.Sprint(m["count"], "/", m["sum"])
			}
			name := shard.ReplaceAllString(m["name"].(string), "shard##")
			values[name] = append(values[name], v)
			where[name] = append(where[name], sc.name+": "+v)
			counters[name] = m["kind"] == "counter" && !faultCounters[name]
		}
	}
	for name := range faultCounters {
		if values[name] == nil {
			t.Errorf("fault counter %s is registered by no scenario", name)
		}
	}
	var still, faults []string
	for name, vs := range values {
		zero := true
		same := len(vs) > 1
		for _, v := range vs {
			zero = zero && (v == "0" || v == "0/0")
			same = same && v == vs[0]
		}
		switch {
		case faultCounters[name] && !zero:
			faults = append(faults, fmt.Sprintf("%s (%s)", name, strings.Join(where[name], "; ")))
		case !faultCounters[name] && (zero || same):
			still = append(still, fmt.Sprintf("%s (%s)", name, strings.Join(where[name], "; ")))
		}
	}
	twins := map[string][]string{} // a counter's labeled values → the counters that read them
	for name, counter := range counters {
		if counter {
			k := strings.Join(where[name], "; ")
			twins[k] = append(twins[k], name)
		}
	}
	var dup []string
	for k, names := range twins {
		if len(names) > 1 {
			sort.Strings(names)
			dup = append(dup, fmt.Sprintf("%s (%s)", strings.Join(names, " = "), k))
		}
	}
	sort.Strings(still)
	sort.Strings(faults)
	sort.Strings(dup)
	if len(still) > 0 {
		t.Errorf("%d of %d metrics never move:\n%s", len(still), len(values), strings.Join(still, "\n"))
	}
	if len(dup) > 0 {
		t.Errorf("%d groups of counters read the same in every scenario:\n%s", len(dup), strings.Join(dup, "\n"))
	}
	if len(faults) > 0 {
		t.Errorf("fault counters read non-zero in a healthy scenario:\n%s", strings.Join(faults, "\n"))
	}
}

// flagCase is one row of the flag audit: the CLI run with `with` must
// differ from the run with `base` (want "differs"), match it byte for byte
// (want "same": a flag whose contract is to change only host time), exit 2
// with a one-line message and no file written (want "exit 2": a
// non-physical value), or exit 1 (want "exit 1": an artifact it was asked
// for could not be written, or a store it was asked to read is missing).
type flagCase struct {
	flag       string // "cli -name"
	base, with []string
	want       string
}

// flagCases covers every flag of every CLI. Relative paths land in a fresh
// working directory per run; {store} names the store the test prepares;
// {missing} names a directory that must stay absent.
var flagCases = []flagCase{
	{"sovsim -duration", []string{"-duration", "5s"}, []string{"-duration", "6s"}, "differs"},
	{"sovsim -duration", []string{"-duration", "5s"}, []string{"-duration", "0"}, "exit 2"},
	{"sovsim -duration", []string{"-duration", "5s"}, []string{"-duration", "-5s"}, "exit 2"},
	{"sovsim -duration", []string{"-duration", "5s"}, []string{"-duration", "50ms", "-trace", "t.jsonl"}, "exit 2"},
	{"sovsim -seed", []string{"-duration", "5s"}, []string{"-duration", "5s", "-seed", "2"}, "differs"},
	{"sovsim -no-fpga", []string{"-duration", "5s"}, []string{"-duration", "5s", "-no-fpga"}, "differs"},
	{"sovsim -no-sync", []string{"-duration", "5s"}, []string{"-duration", "5s", "-no-sync"}, "differs"},
	{"sovsim -no-reactive", []string{"-duration", "5s", "-metrics", "m.prom"}, []string{"-duration", "5s", "-metrics", "m.prom", "-no-reactive"}, "differs"},
	{"sovsim -no-radar-tracking", []string{"-duration", "5s"}, []string{"-duration", "5s", "-no-radar-tracking"}, "differs"},
	{"sovsim -em-planner", []string{"-duration", "5s"}, []string{"-duration", "5s", "-em-planner"}, "differs"},
	{"sovsim -shuttle", []string{"-duration", "5s"}, []string{"-duration", "5s", "-shuttle"}, "differs"},
	{"sovsim -trace", []string{"-duration", "5s"}, []string{"-duration", "5s", "-trace", "t.jsonl"}, "differs"},
	{"sovsim -metrics", []string{"-duration", "5s"}, []string{"-duration", "5s", "-metrics", "m.prom"}, "differs"},
	{"sovsim -metrics", []string{"-duration", "5s"}, []string{"-duration", "5s", "-metrics", "missing/m.prom"}, "exit 1"},
	{"sovsim -spans", []string{"-duration", "5s"}, []string{"-duration", "5s", "-spans", "s.json"}, "differs"},
	{"sovsim -blackbox", []string{"-duration", "5s"}, []string{"-duration", "5s", "-blackbox", "b.jsonl"}, "differs"},
	{"sovsim -quant", []string{"-duration", "5s"}, []string{"-duration", "5s", "-quant"}, "differs"},
	{"sovsim -sched", []string{"-duration", "5s"}, []string{"-duration", "5s", "-sched"}, "differs"},
	{"sovsim -sched-mapping", []string{"-duration", "5s", "-sched"}, []string{"-duration", "5s", "-sched", "-sched-mapping", "GPU/GPU"}, "differs"},
	{"sovsim -sched-mapping", []string{"-duration", "5s", "-sched"}, []string{"-duration", "5s", "-sched", "-sched-mapping", "bogus"}, "exit 2"},
	{"sovsim -sched-static", []string{"-duration", "5s", "-sched", "-sched-mapping", "GPU/GPU"}, []string{"-duration", "5s", "-sched", "-sched-mapping", "GPU/GPU", "-sched-static"}, "differs"},
	{"sovsim -cameras", []string{"-duration", "5s"}, []string{"-duration", "5s", "-cameras", "3"}, "differs"},
	{"sovsim -cameras", []string{"-duration", "5s"}, []string{"-duration", "5s", "-cameras", "0"}, "exit 2"},
	{"sovsim -ambient", []string{"-duration", "30s", "-sched"}, []string{"-duration", "30s", "-sched", "-ambient", "45"}, "differs"},
	{"sovsim -ambient", []string{"-duration", "30s", "-sched"}, []string{"-duration", "30s", "-sched", "-ambient", "-5"}, "differs"},
	{"sovsim -ambient", []string{"-duration", "30s", "-sched"}, []string{"-duration", "30s", "-sched", "-ambient", "-400"}, "exit 2"},

	{"sovbench -duration", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "6s"}, "differs"},
	{"sovbench -duration", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "0"}, "exit 2"},
	{"sovbench -duration", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "-5s"}, "exit 2"},
	{"sovbench -duration", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "50ms", "-cpuprofile", "cpu.out"}, "exit 2"},
	{"sovbench -seed", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "5s", "-seed", "2"}, "differs"},
	{"sovbench -points", []string{"-only", "fig4a", "-points", "500"}, []string{"-only", "fig4a", "-points", "600"}, "differs"},
	{"sovbench -points", []string{"-only", "fig4a", "-points", "500"}, []string{"-only", "fig4a", "-points", "0"}, "exit 2"},
	{"sovbench -points", []string{"-only", "fig4b", "-points", "500"}, []string{"-only", "fig4b", "-points", "-10"}, "exit 2"},
	{"sovbench -only", []string{"-only", "fig2"}, []string{"-only", "fig3a"}, "differs"},
	{"sovbench -only", []string{"-only", "nonesuch"}, []string{"-only", "nonesuch"}, "exit 2"},
	{"sovbench -workers", []string{"-only", "fig4a", "-points", "500", "-workers", "1"}, []string{"-only", "fig4a", "-points", "500", "-workers", "3"}, "same"},
	{"sovbench -quant", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "5s", "-quant"}, "differs"},
	{"sovbench -sched", []string{"-only", "fig10", "-duration", "5s"}, []string{"-only", "fig10", "-duration", "5s", "-sched"}, "differs"},
	{"sovbench -cpuprofile", []string{"-only", "fig2"}, []string{"-only", "fig2", "-cpuprofile", "cpu.out"}, "differs"},
	{"sovbench -memprofile", []string{"-only", "fig2"}, []string{"-only", "fig2", "-memprofile", "mem.out"}, "differs"},

	{"sovfleet -vehicles", fleetBase, append(fleetArgs(), "-vehicles", "9"), "differs"},
	{"sovfleet -vehicles", fleetBase, append(fleetArgs(), "-vehicles", "0"), "exit 2"},
	{"sovfleet -regions", fleetBase, append(fleetArgs(), "-regions", "1"), "differs"},
	{"sovfleet -regions", fleetBase, append(fleetArgs(), "-regions", "0"), "exit 2"},
	{"sovfleet -regions", fleetBase, append(fleetArgs(), "-regions", "-3"), "exit 2"},
	{"sovfleet -duration", fleetBase, append(fleetArgs(), "-duration", "4s"), "differs"},
	{"sovfleet -duration", fleetBase, append(fleetArgs(), "-duration", "0"), "exit 2"},
	{"sovfleet -duration", fleetBase, append(fleetArgs(), "-duration", "-1m"), "exit 2"},
	{"sovfleet -duration", fleetBase, append(fleetArgs(), "-duration", "500ms", "-epoch", "1s"), "exit 2"},
	{"sovfleet -epoch", fleetBase, append(fleetArgs(), "-epoch", "500ms"), "differs"},
	{"sovfleet -epoch", fleetBase, append(fleetArgs(), "-epoch", "0"), "exit 2"},
	{"sovfleet -epoch", fleetBase, append(fleetArgs(), "-epoch", "-5s"), "exit 2"},
	{"sovfleet -seed", fleetBase, append(fleetArgs(), "-seed", "2"), "differs"},
	{"sovfleet -workers", append(fleetArgs(), "-workers", "1"), append(fleetArgs(), "-workers", "3"), "same"},
	{"sovfleet -demand", fleetBase, append(fleetArgs(), "-demand", "20000"), "differs"},
	{"sovfleet -demand", fleetBase, append(fleetArgs(), "-demand", "-5"), "exit 2"},
	{"sovfleet -quant", fleetBase, append(fleetArgs(), "-quant"), "differs"},
	{"sovfleet -perception", fleetBase, append(fleetArgs(), "-perception", "1"), "differs"},
	{"sovfleet -perception", fleetBase, append(fleetArgs(), "-perception", "-1"), "exit 2"},
	{"sovfleet -trace", []string{"-vehicles", "8", "-regions", "2", "-duration", "3s"}, fleetBase, "differs"},
	{"sovfleet -trace", []string{"-vehicles", "2", "-duration", "5s"}, []string{"-vehicles", "2", "-duration", "5s", "-trace", "/dev/full"}, "exit 1"},
	{"sovfleet -metrics", fleetBase, append(fleetArgs(), "-metrics", "m.prom"), "differs"},
	{"sovfleet -hist", fleetBase, append(fleetArgs(), "-hist"), "differs"},
	{"sovfleet -cloud", fleetBase, append(fleetArgs(), "-cloud", "store"), "differs"},

	{"sovquery -dir", []string{}, []string{"-dir", "{store}"}, "differs"},
	{"sovquery -dir", []string{}, []string{"-dir", "{missing}"}, "exit 1"},
	{"sovquery -vehicles", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-vehicles", "0-3"}, "differs"},
	{"sovquery -from", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-from", "2s"}, "differs"},
	{"sovquery -from", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-from", "-1s"}, "exit 2"},
	{"sovquery -to", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-to", "1s"}, "differs"},
	{"sovquery -to", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-to", "-1s"}, "exit 2"},
	{"sovquery -to", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-from", "5m", "-to", "1m"}, "exit 2"},
	{"sovquery -kinds", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-kinds", "epoch"}, "differs"},
	{"sovquery -count", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-count"}, "differs"},
	{"sovquery -stats", []string{"-dir", "{store}"}, []string{"-dir", "{store}", "-stats"}, "differs"},

	{"sovmodel -distance", []string{"latency"}, []string{"latency", "-distance", "8"}, "differs"},
	{"sovmodel -distance", []string{"latency"}, []string{"latency", "-distance", "-5"}, "exit 2"},
	{"sovmodel -speed", []string{"latency"}, []string{"latency", "-speed", "4"}, "differs"},
	{"sovmodel -speed", []string{"latency"}, []string{"latency", "-speed", "-3"}, "exit 2"},
	{"sovmodel -decel", []string{"latency"}, []string{"latency", "-decel", "3"}, "differs"},
	{"sovmodel -decel", []string{"latency"}, []string{"latency", "-decel", "0"}, "exit 2"},
	{"sovmodel -pad", []string{"energy"}, []string{"energy", "-pad", "0.3"}, "differs"},
	{"sovmodel -pad", []string{"energy"}, []string{"energy", "-pad", "-1"}, "exit 2"},
	{"sovmodel -extra", []string{"energy"}, []string{"energy", "-extra", "31"}, "differs"},
	{"sovmodel -extra", []string{"energy"}, []string{"energy", "-extra", "-5"}, "exit 2"},
	{"sovmodel -day", []string{"energy", "-extra", "31"}, []string{"energy", "-extra", "31", "-day", "12"}, "differs"},
	{"sovmodel -day", []string{"energy", "-extra", "31"}, []string{"energy", "-extra", "31", "-day", "0"}, "exit 2"},
	{"sovmodel -day", []string{"energy", "-extra", "31"}, []string{"energy", "-extra", "31", "-day", "-5"}, "exit 2"},
	{"sovmodel -load", []string{"thermal"}, []string{"thermal", "-load", "300"}, "differs"},
	{"sovmodel -load", []string{"thermal"}, []string{"thermal", "-load", "-50"}, "exit 2"},
	{"sovmodel -ambient", []string{"thermal"}, []string{"thermal", "-ambient", "25"}, "differs"},
	{"sovmodel -ambient", []string{"thermal"}, []string{"thermal", "-ambient", "-400"}, "exit 2"},
}

// fleetBase is a small fleet with a trace, so per-epoch state is visible.
var fleetBase = fleetArgs()

func fleetArgs() []string {
	return []string{"-vehicles", "8", "-regions", "2", "-duration", "3s", "-trace", "t.jsonl"}
}

// declaredFlags lists "cli -name" for every flag a main under cmd/ declares
// (flag.Bool(...), fs.Float64(...), ...).
func declaredFlags(t *testing.T) map[string]bool {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no CLI mains found: %v", err)
	}
	kinds := regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|Var|TextVar|BoolFunc)(Var)?$`)
	out := map[string]bool{}
	for _, file := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cli := filepath.Base(filepath.Dir(file))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !kinds.MatchString(sel.Sel.Name) {
				return true
			}
			arg := call.Args[0]
			if strings.HasSuffix(sel.Sel.Name, "Var") && len(call.Args) > 1 {
				arg = call.Args[1]
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				out[cli+" -"+name] = true
			}
			return true
		})
	}
	return out
}

// TestEveryFlagChangesAnOutput: every flag of every CLI changes at least
// one output byte (stdout, stderr, exit status or a written file) against
// the same run without it, or exits 2 on a non-physical value; -workers
// alone must change nothing. A flag that changes nothing goes. Lines
// starting "host:" report wall-clock throughput and are not compared.
func TestEveryFlagChangesAnOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every CLI")
	}
	declared := declaredFlags(t)
	covered := map[string]bool{}
	for _, c := range flagCases {
		if !declared[c.flag] {
			t.Errorf("%s: no such flag; drop the row", c.flag)
		}
		covered[c.flag] = true
	}
	var missing []string
	for f := range declared {
		if !covered[f] {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("flags with no row in flagCases (show what each changes, or delete it):\n%s", strings.Join(missing, "\n"))
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	// The input for sovquery: a telemetry store.
	in := t.TempDir()
	inputs := map[string]string{
		"{store}":   filepath.Join(in, "store"),
		"{missing}": filepath.Join(in, "missing"),
	}
	args := []string{"-vehicles", "20", "-regions", "2", "-duration", "3s", "-cloud", inputs["{store}"]}
	if out, err := exec.Command(filepath.Join(bin, "sovfleet"), args...).CombinedOutput(); err != nil {
		t.Fatalf("sovfleet %v: %v\n%s", args, err, out)
	}
	run := func(cli string, args []string) (string, int) {
		dir := t.TempDir()
		args = append([]string(nil), args...)
		for i, a := range args {
			if p, ok := inputs[a]; ok {
				args[i] = p
			}
		}
		cmd := exec.Command(filepath.Join(bin, cli), args...)
		cmd.Dir = dir
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		code := 0
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if !strings.HasPrefix(line, "host:") {
				b.WriteString(line)
			}
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			fmt.Fprintf(&b, "\n== %s\n%s", strings.TrimPrefix(path, dir), data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String(), code
	}
	_, noFull := os.Stat("/dev/full")
	for _, c := range flagCases {
		if noFull != nil && slices.Contains(c.with, "/dev/full") {
			t.Logf("%s: %v skipped: this host has no /dev/full", c.flag, c.with)
			continue
		}
		cli := strings.Fields(c.flag)[0]
		base, baseCode := run(cli, c.base)
		with, code := run(cli, c.with)
		switch {
		case c.want == "exit 2" && (code != 2 || strings.Count(with, "\n") != 1):
			t.Errorf("%s: %v exits %d, want 2 and one line on a non-physical value:\n%s", c.flag, c.with, code, with)
		case c.want == "exit 1" && code != 1:
			t.Errorf("%s: %v exits %d, want 1 when an artifact cannot be written or read", c.flag, c.with, code)
		case c.want == "same" && (with != base || code != baseCode):
			t.Errorf("%s: %v changes the output of %v; it may change only host time", c.flag, c.with, c.base)
		case c.want == "differs" && with == base && code == baseCode:
			t.Errorf("%s: %v prints and writes exactly what %v does; the flag changes nothing", c.flag, c.with, c.base)
		}
	}
	if _, err := os.Stat(inputs["{missing}"]); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("sovquery -dir %s created a store where there was none", inputs["{missing}"])
	}
	if out, code := run("sovmodel", []string{"nonesuch"}); code != 2 || strings.Count(out, "\n") != 1 {
		t.Errorf("sovmodel nonesuch exits %d, want 2 and one line on an unknown subcommand:\n%s", code, out)
	}
}
