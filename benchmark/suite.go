package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostRecord says where and how a result file was measured, so a number is
// never read without its host.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func newHostRecord(p params, seconds float64) hostRecord {
	return hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    p.workers,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  gitCommit(),
		Seed:       p.seed,
		Scale:      p.scale,
		Seconds:    seconds,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, "unknown" outside a git work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what -out writes and -check reads.
type resultFile struct {
	Host      hostRecord        `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

// runSuite measures all four workloads. The untraced slices run round-robin
// across workloads, so a slow minute of the host lands on all of them and
// not on whichever happened to be running; the traced passes follow.
func runSuite(p params, seconds float64, out string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.w.tearDown()
		}
	}()
	for _, name := range workloadNames {
		w, err := newWorkload(p, name)
		if err != nil {
			return fail(err)
		}
		r, err := newRunner(w, seconds)
		if err != nil {
			return fail(err)
		}
		runners = append(runners, r)
	}
	for busy := true; busy; {
		busy = false
		for _, r := range runners {
			if r.done() {
				continue
			}
			busy = true
			if err := r.step(); err != nil {
				return fail(err)
			}
		}
	}

	file := resultFile{Host: newHostRecord(p, seconds)}
	ok := true
	for _, r := range runners {
		res := r.result()
		traced, rec, err := tracePass(p, r.w, seconds)
		if err != nil {
			return fail(err)
		}
		// The measured pass has more slices than the traced one; its spread
		// is the one that qualifies the end-to-end numbers.
		iqr := traced.PerLayer["bench.slice_iqr_pct"]
		iqr.Value = r.sliceIQRPct()
		traced.PerLayer["bench.slice_iqr_pct"] = iqr
		res.PerLayer = traced.PerLayer
		res.Ops += traced.Ops
		res.OpsFailed += traced.OpsFailed
		res.Failures = append(res.Failures, traced.Failures...)
		res.Correct = res.Correct && traced.Correct
		ok = ok && res.Correct
		file.Workloads = append(file.Workloads, res)

		fmt.Printf("== %s: end-to-end (tracing off)\n", res.Name)
		printMetrics(os.Stdout, res, res.EndToEnd)
		fmt.Printf("== %s: per layer (traced pass)\n", res.Name)
		printMetrics(os.Stdout, res, res.PerLayer)
		if out != "" {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return fail(err)
			}
			if err := rec.write(out, p.seed); err != nil {
				return fail(err)
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(filepath.Join(out, "result.json"), b, 0o644); err != nil {
			return fail(err)
		}
	}
	h := file.Host
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, W %d, %s, commit %s, seed %d, scale %g, %g s per workload\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.Workers, h.GoVersion, h.GitCommit, h.Seed, h.Scale, h.Seconds)
	if !ok {
		fmt.Println("FAILED: at least one check failed (see FAILED CHECK lines above)")
		return 1
	}
	return 0
}
