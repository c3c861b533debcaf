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
// that ends inside the one burst charged for skipped idle ticks counts it
// whole, where stepping every tick counts only the ticks stepped so far.
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

// checkSkipped runs one system twice, stepping every E_CLK tick and as
// shipped, skipping idle catch-up ticks and charging each skip as one
// burst, and requires the two runs to observe the same execution. When
// skips is set, the skipping run must
// also make at most 60% of the other's Compute calls and skip ticks, so
// a skip that silently stops working fails. The gate counts Compute
// calls, not kernel events: an uninterruptible burst completes inline,
// with no event, so both runs fire the same events.
func checkSkipped(t *testing.T, skips bool, run func(everyTick bool) *platform.System) {
	t.Helper()
	ref := run(true)
	sys := run(false)
	want, got := observe(ref), observe(sys)
	if len(want.Sched) == 0 || len(got.Sched) == 0 {
		t.Fatalf("empty scheduler trace (%d and %d records): the system was built without Sched.Record", len(want.Sched), len(got.Sched))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("skipped ticks changed the execution\nskipping:   %v\nevery tick: %v", got, want)
	}
	if n := ref.Exec.Elided(); n != 0 {
		t.Fatalf("the every-tick run skipped %d ticks, want none", n)
	}
	skipping, everyTick := sys.Sched.ComputeRequests(), ref.Sched.ComputeRequests()
	elided := sys.Exec.Elided()
	t.Logf("Compute calls: %d skipping, %d every tick; %d of %d ticks skipped", skipping, everyTick, elided, sys.Exec.Steps())
	if skips && 10*skipping > 6*everyTick {
		t.Fatalf("skipping run made %d Compute calls, every tick %d: want at most 60%%", skipping, everyTick)
	}
	if skips && elided == 0 {
		t.Fatal("the skipping run skipped no tick")
	}
}

var schemes = []func() platform.Scheme{
	func() platform.Scheme { return platform.DefaultScheme1() },
	func() platform.Scheme { return platform.DefaultScheme2() },
	func() platform.Scheme { return platform.DefaultScheme3() },
}

var levels = []platform.Instrument{platform.RLevel, platform.MLevel}

// TestMergedBurstsMatchChargeByCharge: skipping idle catch-up ticks,
// whose charges merge into one burst per skip, observes the same
// execution as stepping every tick with every charge its own burst, on
// the Table I case at both instrumentation levels on every scheme,
// unfaulted and under each catalogue fault plan that applies. The
// unfaulted runs must skip.
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
					if applies != nil {
						t.Skipf("plan does not apply: %v", applies)
					}
					checkSkipped(t, len(plan.Faults) == 0, func(everyTick bool) *platform.System {
						r, err := core.NewRunner(func(level platform.Instrument) (*platform.System, error) {
							sys, err := platform.NewSystem(gpca.PlatformConfig(), scheme(), level)
							if err != nil {
								return nil, err
							}
							sys.Sched.Record()
							if everyTick {
								platform.StepEveryTick(sys)
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
// a costed entry action skips idle ticks like any other, and observes the
// same execution as the run that steps every tick.
func TestMergedBurstsWithCostedInitialEntry(t *testing.T) {
	for _, scheme := range schemes {
		for _, level := range levels {
			t.Run(fmt.Sprintf("%s/%v", scheme().Name(), level), func(t *testing.T) {
				checkSkipped(t, true, func(everyTick bool) *platform.System {
					sys, err := platform.NewSystem(platform.CostedEntryConfig(), scheme(), level)
					if err != nil {
						t.Fatal(err)
					}
					sys.Sched.Record()
					if everyTick {
						platform.StepEveryTick(sys)
					}
					sys.Env.SetAt(40*time.Millisecond, "sig_lvl", 7)
					sys.Run(300 * time.Millisecond)
					return sys
				})
			})
		}
	}
}
