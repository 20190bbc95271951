package platform

import (
	"testing"
	"time"
)

const frame1080p = 1920 * 1080 * 2

func TestMobileSoCCopyOverheadUpTo3ms(t *testing.T) {
	// Sec. V-A: CPU-mediated copies cost "up to 3 ms" per frame.
	p := MobileSoCDataPath()
	oh := p.FrameOverhead(frame1080p)
	if oh < 1*time.Millisecond || oh > 4*time.Millisecond {
		t.Fatalf("mobile SoC copy overhead = %v, want ~2-3 ms", oh)
	}
}

func TestMobileSoCCoordinationPowerAboutOneWatt(t *testing.T) {
	// Sec. V-A: "an extra 1 W power overhead" at camera rate.
	p := MobileSoCDataPath()
	w := p.SustainedPowerW(frame1080p, 30*4) // 4 cameras at 30 FPS
	if w < 0.2 || w > 1.01 {
		t.Fatalf("coordination power = %v W, want O(1)", w)
	}
}

func TestSustainedPowerSaturates(t *testing.T) {
	p := MobileSoCDataPath()
	// Absurd frame rate: duty clamps at 1, power at CoordinationPowerW.
	if w := p.SustainedPowerW(frame1080p, 1e6); w != p.CoordinationPowerW {
		t.Fatalf("saturated power = %v", w)
	}
}
