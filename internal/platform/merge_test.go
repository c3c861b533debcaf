package platform_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// observation is everything a finished run shows of its execution. Sched
// is the whole scheduler trace, so every system a comparison builds calls
// Sched.Record before its run.
type observation struct {
	Events      []fourvar.Event
	Transitions []fourvar.TransitionDelay
	Tasks       []taskObservation
	Sched       []rtos.TraceRecord
	Switches    uint64
	Preemptions uint64
	Now         sim.Time
}

// taskObservation compares the CPU a task has run, not CPUTime: a run
// that ends inside a CODE(M) invocation counts a merged burst whole,
// where charge by charge counts only the charges issued so far.
type taskObservation struct {
	Name             string
	CPUUsed          sim.Time
	Releases, Missed uint64
}

func observe(sys *platform.System) observation {
	o := observation{
		Events:      sys.Trace.Events(),
		Transitions: sys.TransTrace.Records(),
		Sched:       sys.Sched.Record().Records(),
		Switches:    sys.Sched.ContextSwitches(),
		Preemptions: sys.Sched.Preemptions(),
		Now:         sys.Kernel.Now(),
	}
	for _, tk := range sys.Sched.Tasks() {
		o.Tasks = append(o.Tasks, taskObservation{tk.Name(), tk.CPUUsed(), tk.Releases(), tk.MissedReleases()})
	}
	return o
}

func (o observation) String() string {
	return fmt.Sprintf("%d trace events, %d transitions, %d scheduler records, tasks %v, %d switches, %d preemptions, ended at %v",
		len(o.Events), len(o.Transitions), len(o.Sched), o.Tasks, o.Switches, o.Preemptions, o.Now)
}

// checkMerged runs one system charge by charge, which also steps every
// E_CLK tick, and merged, which also skips idle catch-up ticks, and
// requires the two runs to observe the same execution. When merges is
// set, the merged run must also issue at most 60% of the other's Compute
// requests and skip ticks, so a merge or a skip that silently stops
// working fails. The gate counts requests, not kernel events: the
// scheduler completes an uninterruptible burst inline, with no event, so
// both runs fire the same events.
func checkMerged(t *testing.T, merges bool, run func(chargeByCharge bool) *platform.System) {
	t.Helper()
	ref := run(true)
	defer ref.Shutdown()
	sys := run(false)
	defer sys.Shutdown()
	want, got := observe(ref), observe(sys)
	if len(want.Sched) == 0 || len(got.Sched) == 0 {
		t.Fatalf("empty scheduler trace (%d and %d records): the system was built without Sched.Record", len(want.Sched), len(got.Sched))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged bursts changed the execution\nmerged:           %v\ncharge by charge: %v", got, want)
	}
	if n := ref.Exec.Elided(); n != 0 {
		t.Fatalf("the charge-by-charge run skipped %d ticks, want none", n)
	}
	merged, byCharge := sys.Sched.ComputeRequests(), ref.Sched.ComputeRequests()
	elided := sys.Exec.Elided()
	t.Logf("Compute requests: %d merged, %d charge by charge; %d of %d ticks skipped", merged, byCharge, elided, sys.Exec.Steps())
	if merges && 10*merged > 6*byCharge {
		t.Fatalf("merged run issued %d Compute requests, charge by charge %d: want at most 60%%", merged, byCharge)
	}
	if merges && elided == 0 {
		t.Fatal("the merged run skipped no tick")
	}
}

var schemes = []func() platform.Scheme{
	func() platform.Scheme { return platform.DefaultScheme1() },
	func() platform.Scheme { return platform.DefaultScheme2() },
	func() platform.Scheme { return platform.DefaultScheme3() },
}

var levels = []platform.Instrument{platform.RLevel, platform.MLevel}

// TestMergedBurstsMatchChargeByCharge: issuing CODE(M)'s cost as one
// burst per observation point, and skipping idle catch-up ticks, observes
// the same execution as stepping every tick and issuing every charge on
// its own, on the Table I case at both instrumentation levels on every
// scheme, unfaulted and under each catalogue fault plan that applies.
// The unfaulted runs must merge and skip.
func TestMergedBurstsMatchChargeByCharge(t *testing.T) {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(3, 42).Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	plans := rmtest.FaultCatalog(tc.Horizon(req))
	seeds := campaign.Seeds(42, len(plans))
	for _, scheme := range schemes {
		for i, plan := range plans {
			for _, level := range levels {
				t.Run(fmt.Sprintf("%s/%s/%v", scheme().Name(), plan.Name, level), func(t *testing.T) {
					t.Parallel()
					probe, err := platform.NewSystem(gpca.PlatformConfig(), scheme(), level)
					if err != nil {
						t.Fatal(err)
					}
					applies := plan.Apply(probe, seeds[i])
					probe.Shutdown()
					if applies != nil {
						t.Skipf("plan does not apply: %v", applies)
					}
					checkMerged(t, len(plan.Faults) == 0, func(chargeByCharge bool) *platform.System {
						r, err := core.NewRunner(func(level platform.Instrument) (*platform.System, error) {
							sys, err := platform.NewSystem(gpca.PlatformConfig(), scheme(), level)
							if err != nil {
								return nil, err
							}
							sys.Sched.Record()
							if chargeByCharge {
								platform.ChargeByCharge(sys)
							}
							return sys, nil
						}, req)
						if err != nil {
							t.Fatal(err)
						}
						r.Prepare = faults.Prepare(plan, seeds[i])
						sys, err := r.Setup(level, tc)
						if err != nil {
							t.Fatal(err)
						}
						sys.Run(tc.Horizon(req))
						return sys
					})
				})
			}
		}
	}
}

// TestMergedBurstsWithCostedInitialEntry: a chart whose initial state has
// a costed entry action merges and skips idle ticks like any other, and
// observes the same execution as the charge-by-charge, tick-by-tick run.
func TestMergedBurstsWithCostedInitialEntry(t *testing.T) {
	for _, scheme := range schemes {
		for _, level := range levels {
			t.Run(fmt.Sprintf("%s/%v", scheme().Name(), level), func(t *testing.T) {
				checkMerged(t, true, func(chargeByCharge bool) *platform.System {
					sys, err := platform.NewSystem(platform.CostedEntryConfig(), scheme(), level)
					if err != nil {
						t.Fatal(err)
					}
					sys.Sched.Record()
					if chargeByCharge {
						platform.ChargeByCharge(sys)
					}
					sys.Env.SetAt(40*time.Millisecond, "sig_lvl", 7)
					sys.Run(300 * time.Millisecond)
					return sys
				})
			})
		}
	}
}
