package rmtest_test

// Golden digests of the full-horizon scheduler trace: the Table I case
// on the three schemes and on scheme 2 under every fault-catalogue plan.
// Any change to who runs when, on any of these platforms, changes a
// digest.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
)

const schedTraceGolden = "testdata/sched_traces.txt"

// schedTraceLine runs tc for its full horizon at M level on scheme with
// the given Prepare hook (nil for none) and summarises the scheduler
// trace as one line: the label, the record count, the preempt and ISR
// record counts, the context switches, and the SHA-256 of the rendered
// trace.
func schedTraceLine(t *testing.T, label string, req core.Requirement, tc core.TestCase, scheme func() platform.Scheme, prepare func(*platform.System, core.TestCase)) string {
	t.Helper()
	runner, err := core.NewRunner(gpca.Factory(scheme), req)
	if err != nil {
		t.Fatal(err)
	}
	runner.Prepare = prepare
	sys, err := runner.Setup(platform.MLevel, tc)
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.Sched.Record()
	sys.Run(tc.Horizon(req))
	return fmt.Sprintf("%s records=%d preempt=%d isr=%d switches=%d sha256=%x",
		label, len(tr.Records()), len(tr.Filter(rtos.TracePreempt)), len(tr.Filter(rtos.TraceISR)),
		sys.Sched.ContextSwitches(), sha256.Sum256([]byte(tr.String())))
}

// TestSchedulerTraceGolden pins the scheduler trace of 13 full-horizon
// runs. UPDATE_GOLDEN=1 re-records testdata/sched_traces.txt; do that
// only for a change meant to alter schedules, and say why.
func TestSchedulerTraceGolden(t *testing.T) {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(10, 42).Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	schemes := []func() platform.Scheme{
		func() platform.Scheme { return platform.DefaultScheme1() },
		func() platform.Scheme { return platform.DefaultScheme2() },
		func() platform.Scheme { return platform.DefaultScheme3() },
	}
	for i, scheme := range schemes {
		fmt.Fprintln(&b, schedTraceLine(t, fmt.Sprintf("scheme%d", i+1), req, tc, scheme, nil))
	}
	plans := rmtest.FaultCatalog(tc.Horizon(req))
	seeds := campaign.Seeds(42, len(plans))
	for i, plan := range plans {
		fmt.Fprintln(&b, schedTraceLine(t, "scheme2/"+plan.Name, req, tc, schemes[1], faults.Prepare(plan, seeds[i])))
	}
	got := b.Bytes()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(schedTraceGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(schedTraceGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scheduler traces differ from %s:\ngot:\n%swant:\n%s", schedTraceGolden, got, want)
	}
}

const runTraceGolden = "testdata/run_traces.txt"

// runTraceLine runs tc for its full horizon at the given level on scheme
// with plan applied (it reports false when the plan does not apply to the
// scheme) and summarises the whole execution as one line: the SHA-256 of
// the four-variable, transition and scheduler traces, the final instant,
// the switches and preemptions, and every task's CPU used, releases and
// missed releases.
func runTraceLine(t *testing.T, label string, req core.Requirement, tc core.TestCase, scheme func() platform.Scheme, level platform.Instrument, plan faults.Plan, seed uint64) (string, bool) {
	t.Helper()
	runner, err := core.NewRunner(gpca.Factory(scheme), req)
	if err != nil {
		t.Fatal(err)
	}
	var applyErr error
	runner.Prepare = func(sys *platform.System, _ core.TestCase) { applyErr = plan.Apply(sys, seed) }
	sys, err := runner.Setup(level, tc)
	if err != nil {
		t.Fatal(err)
	}
	if applyErr != nil {
		return "", false
	}
	tr := sys.Sched.Record()
	sys.Run(tc.Horizon(req))
	trans := sha256.New()
	for _, td := range sys.TransTrace.Records() {
		fmt.Fprintf(trans, "%d %s %d %d %v\n", td.Index, td.Label, td.Start, td.Finish, td.Outputs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s fourvar=%x trans=%x sched=%x now=%d switches=%d preempt=%d",
		label, sha256.Sum256([]byte(sys.Trace.String())), trans.Sum(nil), sha256.Sum256([]byte(tr.String())),
		sys.Kernel.Now(), sys.Sched.ContextSwitches(), sys.Sched.Preemptions())
	for _, tk := range sys.Sched.Tasks() {
		fmt.Fprintf(&b, " %s=%d/%d/%d", tk.Name(), tk.CPUUsed(), tk.Releases(), tk.MissedReleases())
	}
	return b.String(), true
}

// TestRunTraceGolden pins whole full-horizon executions of the Table I
// case: schemes 1–3 × every fault-catalogue plan that applies × the R and
// M levels. Each line of testdata/run_traces.txt holds a run's label, the
// digests of its four-variable, transition and scheduler traces, its final
// instant, switches and preemptions, and each task's CPU used, releases
// and missed releases (name=cpu/releases/missed, in spawn order).
// UPDATE_GOLDEN=1 re-records it; do that only for a change meant to alter
// executions, and say why.
func TestRunTraceGolden(t *testing.T) {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(10, 42).Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []func() platform.Scheme{
		func() platform.Scheme { return platform.DefaultScheme1() },
		func() platform.Scheme { return platform.DefaultScheme2() },
		func() platform.Scheme { return platform.DefaultScheme3() },
	}
	plans := rmtest.FaultCatalog(tc.Horizon(req))
	seeds := campaign.Seeds(42, len(plans))
	var b bytes.Buffer
	for i, scheme := range schemes {
		for j, plan := range plans {
			for _, level := range []platform.Instrument{platform.RLevel, platform.MLevel} {
				label := fmt.Sprintf("scheme%d/%s/%v", i+1, plan.Name, level)
				if line, ok := runTraceLine(t, label, req, tc, scheme, level, plan, seeds[j]); ok {
					fmt.Fprintln(&b, line)
				}
			}
		}
	}
	got := b.Bytes()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(runTraceGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(runTraceGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("run traces differ from %s:\ngot:\n%swant:\n%s", runTraceGolden, got, want)
	}
}
