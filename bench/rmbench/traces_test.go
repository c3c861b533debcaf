package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	first := samples[0]
	if first.weight != 40*time.Millisecond || first.frames[0] != "runtime.lock2" || len(first.frames) != 11 {
		t.Errorf("first sample = %v %q (%d frames)", first.weight, first.frames[0], len(first.frames))
	}
	if got := first.frames[1]; got != "runtime.lockWithRank" {
		t.Errorf("inline marker kept: %q", got)
	}
	// The label line before the second sample's leaf is not a frame.
	if got := samples[1].frames[0]; got != "rmtest/internal/sim.(*Kernel).fire" {
		t.Errorf("second sample leaf = %q", got)
	}

	sh := attribute(samples)
	want := map[string]float64{
		"rtos": 0.4, "sim": 0.2, "verify": 0.1, "campaign": 0.1, "other": 0.1, runtimeBG: 0.1,
	}
	sum := 0.0
	for l, v := range sh.layer {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("share %s = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 || len(sh.layer) != len(layers)+1 {
		t.Errorf("shares sum to %v over %d layers", sum, len(sh.layer))
	}
	if math.Abs(sh.handoff-0.4) > 1e-9 || math.Abs(sh.gc-0.2) > 1e-9 {
		t.Errorf("handoff %v gc %v, want 0.4 and 0.2", sh.handoff, sh.gc)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"rmtest/internal/hw.(*Sensor).Read":                                "platform",
		"rmtest/internal/env.(*Environment).Watch":                         "platform",
		"rmtest/internal/coverage.Measure":                                 "tcgen",
		"rmtest/internal/statechart.(*Chart).Compile":                      "verify",
		"rmtest/internal/gpca.Chart":                                       "other",
		"rmtest.GenerateSuite":                                             "other",
		"main.main":                                                        "other",
		"rmtest/internal/campaign.protect[go.shape.struct { rmtest/x.y }]": "campaign",
		"runtime.selectgo":                                                 "",
		"runtime.main":                                                     "",
	} {
		if got, _ := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
