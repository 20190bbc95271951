package platform

import (
	"math"
	"testing"
	"time"
)

func TestCatalogOperatingPoints(t *testing.T) {
	cat := Catalog()
	for _, name := range []string{"CPU", "GPU", "TX2", "FPGA"} {
		p, ok := cat[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if p.PowerW <= 0 {
			t.Fatalf("%s has invalid power", name)
		}
	}
	// Fig. 6a headline: FPGA beats GPU only on localization.
	gpu, fpga := cat["GPU"], cat["FPGA"]
	if fpga.Latency[TaskLocalization] >= gpu.Latency[TaskLocalization] {
		t.Fatal("FPGA should win localization")
	}
	if fpga.Latency[TaskDepth] <= gpu.Latency[TaskDepth] {
		t.Fatal("GPU should win depth")
	}
	if fpga.Latency[TaskDetection] <= gpu.Latency[TaskDetection] {
		t.Fatal("GPU should win detection")
	}
}

func TestTX2Cumulative844(t *testing.T) {
	// Paper: TX2 cumulative perception latency 844.2 ms.
	got := TX2CumulativePerception()
	want := 844200 * time.Microsecond
	if got != want {
		t.Fatalf("TX2 cumulative = %v, want %v", got, want)
	}
}

func TestCPUDepthEnergyMatchesFig6b(t *testing.T) {
	// Paper annotation: ~1207 J for depth on the CPU.
	cpu := Catalog()["CPU"]
	e, ok := cpu.Energy(TaskDepth)
	if !ok {
		t.Fatal("CPU must support depth")
	}
	if math.Abs(e-1207) > 10 {
		t.Fatalf("CPU depth energy = %v J, want ~1207", e)
	}
}

func TestTX2EnergyMarginalVsGPU(t *testing.T) {
	// Fig. 6b: TX2 has only marginal, sometimes worse, energy vs GPU due
	// to its long latency. Check detection is within 2x either way.
	cat := Catalog()
	eGPU, _ := cat["GPU"].Energy(TaskDetection)
	eTX2, _ := cat["TX2"].Energy(TaskDetection)
	ratio := eTX2 / eGPU
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("TX2/GPU detection energy ratio = %v, want marginal (~1)", ratio)
	}
}

func TestEnergyUnsupportedTask(t *testing.T) {
	gpu := Catalog()["GPU"]
	if _, ok := gpu.Energy(TaskPlanning); ok {
		t.Fatal("GPU does not host planning")
	}
}

func TestOurMappingIs77ms(t *testing.T) {
	r, err := EvaluateMapping(OurDesign(), Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if r.PerceptionLatency != 77*time.Millisecond {
		t.Fatalf("perception latency = %v, want 77 ms", r.PerceptionLatency)
	}
	if r.LocalizationLatency != 24*time.Millisecond {
		t.Fatalf("localization = %v, want 24 ms", r.LocalizationLatency)
	}
}

func TestGPUOnlyMappingIs120ms(t *testing.T) {
	r, err := EvaluateMapping(Mapping{SceneUnderstanding: "GPU", Localization: "GPU"}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if r.PerceptionLatency != 120*time.Millisecond {
		t.Fatalf("GPU-only perception = %v, want 120 ms", r.PerceptionLatency)
	}
}

func TestFPGAOffloadGives1p6x(t *testing.T) {
	// Paper: offloading localization improves perception 1.6×.
	cat := Catalog()
	shared, _ := EvaluateMapping(Mapping{SceneUnderstanding: "GPU", Localization: "GPU"}, cat)
	ours, _ := EvaluateMapping(OurDesign(), cat)
	speedup := float64(shared.PerceptionLatency) / float64(ours.PerceptionLatency)
	if math.Abs(speedup-1.56) > 0.1 {
		t.Fatalf("speedup = %v, want ~1.6", speedup)
	}
}

func TestTX2AlwaysBottleneck(t *testing.T) {
	// Fig. 8: any mapping with TX2 in it is the latency bottleneck.
	cat := Catalog()
	ours, _ := EvaluateMapping(OurDesign(), cat)
	for _, m := range []Mapping{
		{SceneUnderstanding: "GPU", Localization: "TX2"},
		{SceneUnderstanding: "TX2", Localization: "GPU"},
		{SceneUnderstanding: "TX2", Localization: "TX2"},
	} {
		r, err := EvaluateMapping(m, cat)
		if err != nil {
			t.Fatal(err)
		}
		if r.PerceptionLatency <= ours.PerceptionLatency {
			t.Fatalf("mapping %+v should be worse than ours", m)
		}
	}
}

func TestExploreMappingsSortedAndOursBest(t *testing.T) {
	results := ExploreMappings()
	if len(results) != 5 {
		t.Fatalf("mappings = %d, want 5", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].PerceptionLatency < results[i-1].PerceptionLatency {
			t.Fatal("not sorted")
		}
	}
	best := results[0].Mapping
	if best != OurDesign() {
		t.Fatalf("best mapping = %+v, want our design", best)
	}
}

// TestExploreMappingsDeterministicTieBreak pins the secondary sort key: the
// TX2-bottlenecked pairs (TX2/GPU, TX2/TX2) land on identical perception
// latency, and the mapping names must break the tie the same way on every
// call — the online scheduler's candidate ordering depends on it.
func TestExploreMappingsDeterministicTieBreak(t *testing.T) {
	first := ExploreMappings()
	iGPU, iTX2 := -1, -1
	for i, r := range first {
		switch r.Mapping {
		case (Mapping{SceneUnderstanding: "TX2", Localization: "GPU"}):
			iGPU = i
		case (Mapping{SceneUnderstanding: "TX2", Localization: "TX2"}):
			iTX2 = i
		}
	}
	if iGPU < 0 || iTX2 < 0 {
		t.Fatalf("TX2 pairs missing from exploration: %+v", first)
	}
	if first[iGPU].PerceptionLatency != first[iTX2].PerceptionLatency {
		t.Fatalf("expected a genuine tie, got %v vs %v",
			first[iGPU].PerceptionLatency, first[iTX2].PerceptionLatency)
	}
	if iGPU > iTX2 {
		t.Fatal("tie broken against localization name order: TX2/GPU must precede TX2/TX2")
	}
	for trial := 0; trial < 10; trial++ {
		again := ExploreMappings()
		for i := range first {
			if again[i].Mapping != first[i].Mapping {
				t.Fatalf("exploration order unstable at %d: %+v vs %+v",
					i, again[i].Mapping, first[i].Mapping)
			}
		}
	}
}

// TestContendedTruthTable: contention means scene understanding and
// localization time-share the *same GPU* — not merely the same processor
// (the paper's TX2/TX2 rows carry no such factor), and not different
// processors of any kind.
func TestContendedTruthTable(t *testing.T) {
	cat := Catalog()
	cases := []struct {
		su, loc string
		want    bool
	}{
		{"GPU", "GPU", true},
		{"GPU", "FPGA", false},
		{"GPU", "TX2", false},
		{"TX2", "TX2", false}, // shared, but not the GPU
		{"CPU", "CPU", false},
		{"TX2", "GPU", false},
		{"XPU", "GPU", false}, // unknown processors never contend
		{"GPU", "XPU", false},
	}
	for _, c := range cases {
		m := Mapping{SceneUnderstanding: c.su, Localization: c.loc}
		if got := Contended(cat, m); got != c.want {
			t.Errorf("Contended(%s/%s) = %v, want %v", c.su, c.loc, got, c.want)
		}
	}
	// And EvaluateMapping's contended score actually reflects it: GPU/GPU
	// must be slower than GPU/FPGA by more than the localization delta.
	shared, err := EvaluateMapping(Mapping{SceneUnderstanding: "GPU", Localization: "GPU"}, cat)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := EvaluateMapping(OurDesign(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if shared.PerceptionLatency <= time.Duration(float64(ours.PerceptionLatency)*ContentionFactor*0.99) {
		t.Fatalf("GPU/GPU (%v) does not carry the contention factor over GPU/FPGA (%v)",
			shared.PerceptionLatency, ours.PerceptionLatency)
	}
}

// TestBatchingCapability pins which processors the scheduler may batch
// multi-camera (and cross-vehicle) inference on: the CUDA runtimes batch,
// the spatial FPGA accelerator and the CPU fallback do not.
func TestBatchingCapability(t *testing.T) {
	cat := Catalog()
	for name, want := range map[string]bool{"GPU": true, "TX2": true, "FPGA": false, "CPU": false} {
		if cat[name].Batching != want {
			t.Errorf("%s Batching = %v, want %v", name, cat[name].Batching, want)
		}
	}
}

func TestEvaluateMappingErrors(t *testing.T) {
	if _, err := EvaluateMapping(Mapping{SceneUnderstanding: "QPU", Localization: "GPU"}, Catalog()); err == nil {
		t.Fatal("unknown processor should error")
	}
}

// TestQuantizedCatalog: the quantized catalog points core draws from (-quant)
// divide the float point by the documented speedup, which stays above its
// 1.5x floor.
func TestQuantizedCatalog(t *testing.T) {
	if QuantSpeedup < 1.5 {
		t.Fatalf("QuantSpeedup = %v below the documented 1.5x floor", QuantSpeedup)
	}
	for _, lat := range Catalog()["GPU"].Latency {
		if q := QuantizedLatency(lat); q >= lat || q != time.Duration(float64(lat)/QuantSpeedup) {
			t.Fatalf("%v quantized to %v", lat, q)
		}
	}
}

func TestTaskStrings(t *testing.T) {
	if TaskDepth.String() == "" || Task(99).String() == "" {
		t.Fatal("empty task string")
	}
}
