package sov

import (
	"testing"
	"time"
)

func TestPublicAPISmoke(t *testing.T) {
	w := CruiseScenario(1)
	s := NewSystem(DefaultConfig(), w)
	rep := s.Run(20 * time.Second)
	if rep.Cycles < 150 {
		t.Fatalf("cycles = %d", rep.Cycles)
	}
	if s.DistanceM() < 50 {
		t.Fatalf("distance = %.1f", s.DistanceM())
	}
	if s.Speed() < 0 {
		t.Fatal("negative speed")
	}
}

func TestPublicModels(t *testing.T) {
	lm := DefaultLatencyModel()
	if lm.BrakingDistance() <= 0 {
		t.Fatal("braking distance")
	}
	if DrivingTimeHours(PowerBudgetKW()) >= 10 {
		t.Fatal("AD power should reduce driving time below baseline")
	}
	if CameraVehicleCost().SensorTotalUSD() >= LiDARVehicleCost().SensorTotalUSD() {
		t.Fatal("camera sensors must be cheaper")
	}
	if CostPerTripUSD() <= 0 {
		t.Fatal("TCO per trip")
	}
}

func TestPublicMappingExplorer(t *testing.T) {
	results := ExploreMappings()
	if len(results) == 0 || results[0].Mapping.Localization != "FPGA" {
		t.Fatalf("best mapping = %+v", results)
	}
}

func TestPublicSyncExperiments(t *testing.T) {
	sw := SoftwareSyncExperiment(5*time.Second, 1)
	hw := HardwareSyncExperiment(5*time.Second, 1)
	if sw.MeanMs <= hw.MeanMs {
		t.Fatalf("sw %.2f <= hw %.2f", sw.MeanMs, hw.MeanMs)
	}
	if e := StereoDepthErrorAtOffset(60 * time.Millisecond); e < 0.5 {
		t.Fatalf("depth error at 60 ms = %v", e)
	}
}

func TestWorldBuilders(t *testing.T) {
	if w := CampusLoop(80, 2); len(w.Lanes) != 4 || len(w.Landmarks) == 0 {
		t.Fatal("campus lanes and landmarks")
	}
}
