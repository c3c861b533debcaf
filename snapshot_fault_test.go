package rmtest_test

// Snapshot/restore round-trips under active fault windows: an M-level
// GPCA system with a whole-horizon fault armed is snapshotted
// mid-schedule (inside the window), restored twice from the same
// snapshot, and each continuation must reproduce the uninterrupted
// faulted run sample for sample. The plans cover the stateful injector
// classes: seeded sensor jitter (Rand stream position), queue-drop
// cadence (send counter), and clock drift (live ticker skew).

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
)

func TestSnapshotRoundTripUnderActiveFaultWindows(t *testing.T) {
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	req := gpca.REQ1()
	gen := core.Generator{
		N: 3, Start: 50 * time.Millisecond,
		Spacing:  4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond,
		Seed: 7,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	horizon := tc.Horizon(req)
	const seed = 0x5eed

	plans := []faults.Plan{
		{Name: "sensor-latency", Faults: []faults.Fault{
			{Class: faults.SensorLatency, Target: "bolus_button", Duration: horizon, Max: 120 * time.Millisecond}}},
		{Name: "queue-drop", Faults: []faults.Fault{
			{Class: faults.QueueDrop, Target: "inQ", Duration: horizon, Every: 2}}},
		{Name: "clock-drift", Faults: []faults.Fault{
			{Class: faults.ClockDrift, Target: "bolus_button", Duration: horizon, PPM: 15_000_000}}},
	}

	scheme := func() platform.Scheme { return platform.DefaultScheme2() }
	for _, plan := range plans {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			sc := &platform.Scratch{}
			runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, sc), req)
			if err != nil {
				t.Fatal(err)
			}

			// Uninterrupted faulted run: the reference the round-trips
			// must reproduce.
			runner.Prepare = faults.Prepare(plan, seed)
			ref, err := runner.RunM(tc)
			if err != nil {
				t.Fatal(err)
			}

			// Same arming by hand, so the snapshot can be interposed. A
			// plain hand-armed run gives the reference task accounting.
			arm := func(sys *platform.System) {
				st := req.Stimulus
				for _, at := range tc.Stimuli {
					if st.Width > 0 {
						sys.Env.PulseAt(at, st.Signal, st.Value, st.Rest, st.Width)
					} else {
						sys.Env.SetAt(at, st.Signal, st.Value)
					}
				}
				faults.Prepare(plan, seed)(sys, tc)
			}
			plain, err := pb.NewSystem(platform.DefaultScheme2(), platform.MLevel, nil)
			if err != nil {
				t.Fatal(err)
			}
			arm(plain)
			plain.Run(horizon)
			refTasks := taskAccounting(plain)
			plain.Shutdown()

			before := runtime.NumGoroutine()
			sys, err := pb.NewSystem(platform.DefaultScheme2(), platform.MLevel, sc)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			arm(sys)

			// Snapshot just before the second stimulus — deep inside every
			// plan's whole-horizon window, with the first sample's effects
			// (jitter draws consumed, sends dropped, drift applied)
			// already in the captured state.
			bound := tc.Stimuli[1]
			snap, ok := sys.AdvanceSnapshot(bound)
			if !ok {
				t.Fatalf("no quiescent snapshot instant before %v under %s", bound, plan.Name)
			}
			if at := snap.At(); at <= 0 || at > bound {
				t.Fatalf("snapshot at %v, want inside (0, %v]", at, bound)
			}

			// Two round-trips from the one snapshot: the first must match
			// the reference, and the second must match the first — the
			// restore may not consume or corrupt the snapshot. Everything
			// was armed before the capture, so the snapshot's own pending
			// events carry the rest of the schedule and the arm hook adds
			// nothing. Each restore lands while a task is mid-burst, the
			// one state from which a restore must stop a task's coroutine
			// and restart it at its release boundary.
			for trip := 0; trip < 2; trip++ {
				for !taskOnCPU(sys) {
					if !sys.Kernel.Step() {
						t.Fatal("schedule ran dry before any task took the CPU")
					}
				}
				if sys.Sched.Quiescent() {
					t.Fatalf("trip %d: scheduler quiescent with a task on the CPU", trip)
				}
				sys.Restore(snap, func() {})
				sys.Run(horizon)
				mr := runner.AnnotateM(sys, tc, runner.Evaluate(sys, tc))
				sys.DetachTransTrace()
				if !reflect.DeepEqual(mr.Samples, ref.Samples) {
					t.Fatalf("round-trip %d under %s diverged:\ngot  %+v\nwant %+v",
						trip, plan.Name, mr.Samples, ref.Samples)
				}
				if got := taskAccounting(sys); got != refTasks {
					t.Fatalf("round-trip %d under %s: task accounting diverged:\ngot\n%swant\n%s",
						trip, plan.Name, got, refTasks)
				}
			}
			// The coroutines the restores replaced must not outlive them.
			sys.Shutdown()
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("goroutines after Shutdown = %d, want at most %d", now, before)
			}
		})
	}
}

// taskOnCPU reports whether some task holds the CPU. Between kernel
// events that task is mid-burst inside its release body.
func taskOnCPU(sys *platform.System) bool {
	for _, tk := range sys.Sched.Tasks() {
		if tk.State() == rtos.TaskRunning {
			return true
		}
	}
	return false
}

// taskAccounting renders every task's release and CPU accounting, which
// a release resumed mid-body instead of restarted would skew.
func taskAccounting(sys *platform.System) string {
	var b strings.Builder
	for _, tk := range sys.Sched.Tasks() {
		fmt.Fprintf(&b, "%s releases=%d missed=%d cpu=%v\n",
			tk.Name(), tk.Releases(), tk.MissedReleases(), tk.CPUTime())
	}
	return b.String()
}
