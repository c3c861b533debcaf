package report

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

func TestGanttShowsRunningAndReady(t *testing.T) {
	k := sim.New()
	s := rtos.New(k)
	tr := s.Record()
	s.Spawn("lo", 1, 0, func(tk *rtos.Task) { tk.Compute(40 * ms) })
	s.Spawn("hi", 5, 10*ms, func(tk *rtos.Task) { tk.Compute(10 * ms) })
	k.Run(60 * ms)
	out := Gantt(tr, 0, 60*ms, 60)
	if !strings.Contains(out, "lo") || !strings.Contains(out, "hi") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var loLane, hiLane string
	for _, l := range lines {
		if strings.HasPrefix(l, "lo") {
			loLane = l
		}
		if strings.HasPrefix(l, "hi") {
			hiLane = l
		}
	}
	// lo runs, is preempted (ready) while hi runs, then resumes.
	if !strings.Contains(loLane, "#") || !strings.Contains(loLane, ".") {
		t.Fatalf("lo lane should show running and ready: %q", loLane)
	}
	if !strings.Contains(hiLane, "#") {
		t.Fatalf("hi lane should show running: %q", hiLane)
	}
	// hi never waits ready while lo runs (it preempts instantly).
	if strings.Count(hiLane, ".") > 1 {
		t.Fatalf("hi should not wait: %q", hiLane)
	}
}

// TestGanttLongRunShowsPressWindow: the scheduler trace keeps every
// record of a run, so the press window at the start of a 20 s pump run
// (scheme 2, as `pumpsim -scheme 2 -run 20000 -gantt` draws it) shows
// each task running, though more than 4,096 records follow it.
func TestGanttLongRunShowsPressWindow(t *testing.T) {
	sys, err := platform.NewSystem(gpca.PlatformConfig(), platform.DefaultScheme2(), platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.Sched.Record()
	sys.Env.PulseAt(40*ms, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
	sys.Run(20 * time.Second)
	out := Gantt(tr, 30*ms, 190*ms, 90)
	lanes := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:]
	if len(lanes) != 3 {
		t.Fatalf("want the actuate, codeM and sense lanes:\n%s", out)
	}
	var idle []string
	for _, l := range lanes {
		if name, lane, _ := strings.Cut(l, "|"); !strings.Contains(lane, "#") {
			idle = append(idle, strings.TrimSpace(name))
		}
	}
	if len(idle) > 0 {
		t.Fatalf("lanes %v have no running cell:\n%s", idle, out)
	}
}

func TestGanttEmptyWindow(t *testing.T) {
	k := sim.New()
	s := rtos.New(k)
	if !strings.Contains(Gantt(s.Record(), time.Second, time.Second, 40), "empty window") {
		t.Fatal("degenerate window not reported")
	}
}

func TestTaskLoads(t *testing.T) {
	k := sim.New()
	s := rtos.New(k)
	s.SpawnPeriodic("worker", 2, 0, 10*ms, func(tk *rtos.Task) { tk.Compute(2 * ms) })
	s.Spawn("oneshot", 1, 0, func(tk *rtos.Task) { tk.Compute(5 * ms) })
	k.Run(100 * ms)
	out := TaskLoads(s)
	for _, want := range []string{"worker", "oneshot", "releases=", "prio=2", "task loads over 100ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("loads missing %q:\n%s", want, out)
		}
	}
	// worker: releases at 0..90ms run 10 x 2ms = 20ms = 20%; the burst
	// issued at the 100ms horizon has not run yet.
	if !strings.Contains(out, "20.0%") {
		t.Fatalf("worker share missing:\n%s", out)
	}
}

func TestVCDExport(t *testing.T) {
	tr := fourvar.NewTrace()
	tr.Record(fourvar.Monitored, "btn", 1, 10*ms)
	tr.Record(fourvar.Input, "i_Btn", 1, 14*ms)
	tr.Record(fourvar.Output, "o_Motor", 1, 16*ms)
	tr.Record(fourvar.Controlled, "motor", 1, 19*ms)
	tr.Record(fourvar.Controlled, "motor", 0, 25*ms)
	var b strings.Builder
	if err := VCD(&b, tr, "unit test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"$timescale 1us $end",
		"$scope module m $end",
		"$scope module c $end",
		"$var wire 64 ! btn $end",
		"$enddefinitions $end",
		"#10000",
		"#25000",
		"b1 !",
		"b0 ",
		"unit test",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out)
		}
	}
	// Deterministic.
	var b2 strings.Builder
	if err := VCD(&b2, tr, "unit test"); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("VCD not deterministic")
	}
}

func TestVCDIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		id := vcdID(i)
		if id == "" || seen[id] {
			t.Fatalf("bad id %q at %d", id, i)
		}
		seen[id] = true
	}
	if vcdID(0) != "!" || vcdID(93) != "~" || len(vcdID(94)) != 2 {
		t.Fatalf("id scheme wrong: %q %q %q", vcdID(0), vcdID(93), vcdID(94))
	}
}

func TestVCDFromRealRun(t *testing.T) {
	sys, err := platform.NewSystem(gpca.PlatformConfig(), platform.DefaultScheme1(), platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys.Env.PulseAt(40*ms, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
	sys.Run(time.Second)
	var b strings.Builder
	if err := VCD(&b, sys.Trace, "pump"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sig_bolus_button", "i_BolusReq", "o_MotorState", "sig_pump_motor"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("pump VCD missing %q", want)
		}
	}
}
