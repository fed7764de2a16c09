package repro

import (
	"reflect"
	"testing"
)

// TestMediaSweepShapes pins the sweep's paper-facing story: scrubbing keeps
// every swept retention rate fully readable, while without it the top rate
// outruns ECC + read retries and the audit loses pages.
func TestMediaSweepShapes(t *testing.T) {
	m := mustRun(t, "media", Config{Seed: 1}).Metrics
	top := mediaRates[len(mediaRates)-1]
	for _, rate := range mediaRates {
		on := mediaCell(rate, true)
		if got := m["media/uncorrectable/"+on]; got != 0 {
			t.Errorf("%s: %v uncorrectable audit reads; scrubbing must keep the set readable", on, got)
		}
		if got := m["media/refreshes/"+on]; got == 0 {
			t.Errorf("%s: scrubber refreshed nothing", on)
		}
	}
	offTop := mediaCell(top, false)
	if got := m["media/uncorrectable/"+offTop]; got == 0 {
		t.Errorf("%s: expected audit losses without scrubbing at the top rate", offTop)
	}
	low := mediaCell(mediaRates[0], false)
	if got := m["media/uncorrectable/"+low]; got != 0 {
		t.Errorf("%s: low rate must stay readable on retries alone, lost %v", low, got)
	}
}

// TestMediaSweepDeterministic reruns the sweep with the same seed and
// demands byte-identical counters: the media model's stochastic rounding is
// seeded, so the whole campaign must replay exactly.
func TestMediaSweepDeterministic(t *testing.T) {
	a := mustRun(t, "media", Config{Seed: 1}).Metrics
	b := mustRun(t, "media", Config{Seed: 1}).Metrics
	if !reflect.DeepEqual(a, b) {
		t.Errorf("uncorrectable and refresh counters differ across identical runs:\n%v\n%v", a, b)
	}
}
