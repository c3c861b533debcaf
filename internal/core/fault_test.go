package core_test

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
)

// TestDeadActuatorDiagnosedAsOutputStarvation injects an actuator fault:
// CODE(M) produces the o-event but the motor never moves. R-testing sees
// MAX; M-testing must localise the loss downstream of the i-event.
func TestDeadActuatorDiagnosedAsOutputStarvation(t *testing.T) {
	runner, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	runner.Prepare = func(sys *platform.System, tc core.TestCase) {
		sys.Board.Actuator("pump_motor").InjectDead(0, time.Hour)
	}
	tc := genCase(t, 2, 21)
	rep, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.R.Passed() {
		t.Fatal("dead actuator must violate REQ1")
	}
	for _, s := range rep.R.Samples {
		if s.Verdict != core.Max {
			t.Fatalf("expected MAX, got %v", s.Verdict)
		}
	}
	if rep.M == nil {
		t.Fatal("M phase missing")
	}
	for _, s := range rep.M.Samples {
		if !s.IObserved {
			t.Fatalf("i-event should have been observed (the input path works): %+v", s.SampleResult)
		}
	}
	for _, f := range rep.Diagnosis {
		if !strings.Contains(f.Detail, "output path starved") && !strings.Contains(f.Detail, "CODE(M) execution or the output path") {
			t.Fatalf("diagnosis should blame the output path: %s", f.Detail)
		}
	}
}

// TestStuckButtonDiagnosedAsInputLoss injects a stuck-at-0 bolus button:
// the stimulus never becomes an i-event and the diagnosis must blame the
// Input-Device layer.
func TestStuckButtonDiagnosedAsInputLoss(t *testing.T) {
	runner, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	runner.Prepare = func(sys *platform.System, tc core.TestCase) {
		sys.Board.Sensor("bolus_button").InjectStuck(0, time.Hour, 0)
	}
	tc := genCase(t, 2, 22)
	rep, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.R.Passed() {
		t.Fatal("stuck button must violate REQ1")
	}
	if rep.M == nil {
		t.Fatal("M phase missing")
	}
	for _, s := range rep.M.Samples {
		if s.IObserved {
			t.Fatalf("no i-event should exist with a stuck button: %+v", s.SampleResult)
		}
	}
	for _, f := range rep.Diagnosis {
		if f.Dominant != core.SegInput {
			t.Fatalf("diagnosis should point at the input segment: %+v", f)
		}
		if !strings.Contains(f.Detail, "Input-Device") {
			t.Fatalf("diagnosis text: %s", f.Detail)
		}
	}
}

// TestTransientFaultOnlyAffectsItsWindow verifies fault windows are
// bounded: a sample before the fault passes, one inside fails.
func TestTransientFaultOnlyAffectsItsWindow(t *testing.T) {
	runner, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := core.TestCase{Name: "window", Stimuli: []time.Duration{
		100 * time.Millisecond,  // healthy
		5000 * time.Millisecond, // inside the fault window
		9900 * time.Millisecond, // healthy again
	}}
	runner.Prepare = func(sys *platform.System, _ core.TestCase) {
		sys.Board.Sensor("bolus_button").InjectStuck(4900*time.Millisecond, 400*time.Millisecond, 0)
	}
	rep, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.R.Samples
	if res[0].Verdict != core.Pass {
		t.Fatalf("pre-fault sample: %v", res[0])
	}
	if res[1].Verdict != core.Max {
		t.Fatalf("in-fault sample: %v", res[1])
	}
	if res[2].Verdict != core.Pass {
		t.Fatalf("post-fault sample: %v", res[2])
	}
}
