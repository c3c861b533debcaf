package platform_test

import (
	"testing"
	"time"

	"rmtest/internal/gpca"
	"rmtest/internal/lint"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
	"rmtest/internal/sim"
)

// TestSkippedTicksWithinStaticQuiescentBound: every tick a system skips
// is charged the measured cost of the idle step it repeats, and that
// charge stays within the lint layer's static bound on a quiescent step,
// on the three shipped charts under every scheme.
func TestSkippedTicksWithinStaticQuiescentBound(t *testing.T) {
	press := func(sys *platform.System, sig string, at ...sim.Time) {
		for _, a := range at {
			sys.Env.PulseAt(a, sig, 1, 0, gpca.ButtonPress)
		}
	}
	const s = time.Second
	cases := []struct {
		name      string
		cfg       platform.Config
		stimulate func(*platform.System)
	}{
		{"gpca", gpca.PlatformConfig(), func(sys *platform.System) {
			press(sys, gpca.SigBolusButton, 5*time.Millisecond, 4600*time.Millisecond)
			press(sys, gpca.SigReservoirEmpty, 6*s)
			press(sys, gpca.SigClearButton, 7*s)
		}},
		{"gpca-extended", gpca.ExtendedPlatformConfig(), func(sys *platform.System) {
			sys.Env.SetAt(100*time.Millisecond, gpca.SigBasalDial, 3)
			press(sys, gpca.SigPowerButton, 10*time.Millisecond)
			press(sys, gpca.SigStartButton, s, 7*s)
			press(sys, gpca.SigBolusButton, 2*s)
			press(sys, gpca.SigStopButton, 6500*time.Millisecond)
			press(sys, gpca.SigOcclusion, 8*s)
			press(sys, gpca.SigClearButton, 9*s)
		}},
		{"railcrossing", railcrossing.PlatformConfig(), func(sys *platform.System) {
			press(sys, railcrossing.SigApproach, 50*time.Millisecond, 6*s)
			press(sys, railcrossing.SigClear, 4*s, 9*s)
		}},
	}
	for _, c := range cases {
		rep, err := lint.Analyze(c.cfg.Chart, c.cfg.Cost)
		if err != nil {
			t.Fatal(err)
		}
		bound := rep.WCET.StepQuiescent
		for _, scheme := range schemes {
			sys, err := platform.NewSystem(c.cfg, scheme(), platform.MLevel)
			if err != nil {
				t.Fatal(err)
			}
			var skipped uint64
			var worst time.Duration
			platform.RecordSkips(sys, func(ticks uint64, charge time.Duration) {
				skipped += ticks
				perTick := charge / time.Duration(ticks)
				if perTick*time.Duration(ticks) != charge {
					t.Errorf("%s/%s: %v charged for %d ticks is no whole charge per tick", c.name, sys.SchemeName(), charge, ticks)
				}
				worst = max(worst, perTick)
			})
			c.stimulate(sys)
			sys.Run(10 * s)
			t.Logf("%s/%s: %d transitions, %d of %d ticks skipped, at most %v each; static quiescent step %v",
				c.name, sys.SchemeName(), sys.Exec.TransitionsTaken(), skipped, sys.Exec.Steps(), worst, bound)
			if skipped == 0 {
				t.Errorf("%s/%s: no tick skipped", c.name, sys.SchemeName())
			}
			if worst > bound {
				t.Errorf("%s/%s: a skipped tick charged %v > static quiescent step bound %v", c.name, sys.SchemeName(), worst, bound)
			}
		}
	}
}
