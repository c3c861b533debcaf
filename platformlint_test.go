package rmtest_test

// Cross-checks of the platform static-analysis layer (internal/schedlint)
// against the simulator: the response-time bounds must dominate what the
// scheduler trace measures on the Table I platforms, at every campaign
// worker count; the scheme-2 and scheme-3 platforms'
// findings are pinned as a regression, and their lint renderings byte
// for byte.

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// measurePipelines simulates the scheme-2 and scheme-3 pipelines under
// the Table I stimuli on a campaign pool of the given width and extracts
// each task's worst observed response from the scheduler trace.
func measurePipelines(t *testing.T, workers int) []map[string]sim.Time {
	t.Helper()
	req := gpca.REQ1()
	gen := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 7,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	units := []func() platform.Scheme{
		func() platform.Scheme { return platform.DefaultScheme2() },
		func() platform.Scheme { return platform.DefaultScheme3() },
	}
	outs := campaign.Map(campaign.Config{Workers: workers, Seed: 7}, len(units),
		func(run campaign.Run) (map[string]sim.Time, error) {
			sys, err := platform.NewSystem(gpca.PlatformConfig(), units[run.Index](), platform.RLevel)
			if err != nil {
				return nil, err
			}
			tr := sys.Sched.Record()
			for _, at := range tc.Stimuli {
				sys.Env.PulseAt(at, req.Stimulus.Signal, 1, 0, req.Stimulus.Width)
			}
			sys.Run(tc.Horizon(req))
			resp := rmtest.MeasuredResponses(tr.Records())
			return resp, nil
		})
	vals, err := campaign.Values(outs)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestPlatformBlockingDominatesMeasured is the platform layer's
// dominance cross-check, in the mold of TestStaticWCETDominatesMeasured:
// on the scheme-2 and scheme-3 Table I platforms, every task the static
// analysis calls schedulable must measure a response no worse than its
// bound — and the measured values must be identical at every campaign
// worker count.
func TestPlatformBlockingDominatesMeasured(t *testing.T) {
	measured := measurePipelines(t, 1)
	for _, workers := range []int{2, 4} {
		if again := measurePipelines(t, workers); !reflect.DeepEqual(measured, again) {
			t.Fatalf("measured trace extraction differs between workers=1 and workers=%d", workers)
		}
	}

	s3 := rmtest.Scheme3().(*rmtest.Scheme3Config)
	analyses := make([]rmtest.SchemeAnalysis, 2)
	var err error
	if analyses[0], err = rmtest.AnalyzePipelineStatic(rmtest.Scheme2().(*rmtest.Scheme2Config), nil); err != nil {
		t.Fatal(err)
	}
	if analyses[1], err = rmtest.AnalyzePipelineStatic(&s3.Scheme2, s3.Interference); err != nil {
		t.Fatal(err)
	}

	schemes := []string{"scheme2", "scheme3"}
	for i, an := range analyses {
		if an.Platform == nil {
			t.Fatalf("%s: static pipeline did not produce a platform report", schemes[i])
		}
		checked := 0
		for _, r := range an.Platform.Tasks {
			if !r.Schedulable {
				continue // no meaningful bound for starved tasks
			}
			name := r.Task.Name
			mresp, ok := measured[i][name]
			if !ok {
				t.Errorf("%s: schedulable task %q completed no release in the trace", schemes[i], name)
				continue
			}
			checked++
			if mresp > r.Response {
				t.Errorf("%s: task %q measured response %v > static bound %v",
					schemes[i], name, mresp, r.Response)
			}
		}
		if checked == 0 {
			t.Errorf("%s: dominance check covered no task", schemes[i])
		}
	}
}

// TestScheme2PlatformRegression pins the scheme-2 platform report: no
// fatal findings, every pipeline task schedulable, zero blocking (the
// pipeline is wait-free by construction), and the conservative inQ
// capacity warning.
func TestScheme2PlatformRegression(t *testing.T) {
	an, err := rmtest.AnalyzePipelineStatic(rmtest.Scheme2().(*rmtest.Scheme2Config), nil)
	if err != nil {
		t.Fatal(err)
	}
	plat := an.Platform
	if n := len(plat.Fatal()); n != 0 {
		t.Fatalf("scheme2 platform: want 0 fatal findings, got %d:\n%s", n, plat)
	}
	for _, r := range plat.Tasks {
		if !r.Schedulable {
			t.Errorf("scheme2 task %q not schedulable: R=%v", r.Task.Name, r.Response)
		}
		if r.Task.Blocking != 0 {
			t.Errorf("scheme2 task %q has blocking %v, want 0 (TrySend/TryRecv only)",
				r.Task.Name, r.Task.Blocking)
		}
	}
	var codes []string
	for _, f := range plat.Findings {
		codes = append(codes, f.Code+":"+f.Where)
	}
	if want := []string{"queue-capacity:inQ"}; !reflect.DeepEqual(codes, want) {
		t.Errorf("scheme2 findings = %v, want %v", codes, want)
	}
	if len(plat.Queues) != 2 || plat.Queues[1].Name != "outQ" || plat.Queues[1].Required < 0 {
		t.Errorf("outQ should have a finite bound, got %+v", plat.Queues)
	}
}

// TestScheme3PlatformRegression pins the scheme-3 interference
// platform's findings: the netdrv bursts statically starve every task
// below priority 4, which surfaces as blocking-unschedulable warnings
// for the whole pipeline (and logger/housekeeping) plus unbounded queue
// backlogs — the static anticipation of Table I's scheme-3 violations.
func TestScheme3PlatformRegression(t *testing.T) {
	s3 := rmtest.Scheme3().(*rmtest.Scheme3Config)
	an, err := rmtest.AnalyzePipelineStatic(&s3.Scheme2, s3.Interference)
	if err != nil {
		t.Fatal(err)
	}
	plat := an.Platform
	if n := len(plat.Fatal()); n != 0 {
		t.Fatalf("scheme3 platform: want 0 fatal findings, got %d:\n%s", n, plat)
	}
	got := map[string]bool{}
	for _, f := range plat.Findings {
		got[f.Code+":"+f.Where] = true
	}
	want := []string{
		"blocking-unschedulable:sense",
		"blocking-unschedulable:codeM",
		"blocking-unschedulable:actuate",
		"blocking-unschedulable:logger",
		"blocking-unschedulable:housekeeping",
		"queue-capacity:inQ",
		"queue-capacity:outQ",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("scheme3 findings missing %q:\n%s", w, plat)
		}
	}
	if len(plat.Findings) != len(want) {
		t.Errorf("scheme3 finding count = %d, want %d:\n%s", len(plat.Findings), len(want), plat)
	}
	sched := map[string]bool{}
	for _, r := range plat.Tasks {
		sched[r.Task.Name] = r.Schedulable
	}
	if !sched["netdrv"] {
		t.Error("netdrv (highest priority) must be schedulable")
	}
	for _, name := range []string{"sense", "codeM", "actuate"} {
		if sched[name] {
			t.Errorf("pipeline task %q should be statically unschedulable under netdrv", name)
		}
	}
	// The end-to-end prediction agrees: scheme 3 cannot meet REQ1.
	if an.Bound >= 0 || an.PredictConforms {
		t.Errorf("scheme3 prediction = (bound %v, conforms %v), want unschedulable", an.Bound, an.PredictConforms)
	}
}

// platformGoldens names the scheme platforms whose lint rendering is
// pinned byte-for-byte: the text report and the combined chart+platform
// JSON document of AnalyzePipelineStatic.
var platformGoldens = []struct {
	name string
	an   func() (rmtest.SchemeAnalysis, error)
}{
	{"scheme2", func() (rmtest.SchemeAnalysis, error) {
		return rmtest.AnalyzePipelineStatic(rmtest.Scheme2().(*rmtest.Scheme2Config), nil)
	}},
	{"scheme3", func() (rmtest.SchemeAnalysis, error) {
		s3 := rmtest.Scheme3().(*rmtest.Scheme3Config)
		return rmtest.AnalyzePipelineStatic(&s3.Scheme2, s3.Interference)
	}},
}

// TestPlatformLintGolden pins what `rmtest lint -platform` prints on the
// shipped schemes: findings, blocking terms, response bounds and queue
// backlog bounds, in both the text and the JSON rendering. Run with
// UPDATE_GOLDEN=1 to regenerate after reviewing a rendering change.
func TestPlatformLintGolden(t *testing.T) {
	chart, err := rmtest.Lint(rmtest.PumpChart(), rmtest.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range platformGoldens {
		an, err := g.an()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		js, err := rmtest.RenderCombinedLintJSON(chart, an.Platform)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		outputs := map[string][]byte{
			"testdata/platform_" + g.name + ".txt":  []byte(rmtest.RenderPlatformLint(an.Platform)),
			"testdata/platform_" + g.name + ".json": append(js, '\n'),
		}
		for path, got := range outputs {
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s rendering differs from %s; run with UPDATE_GOLDEN=1 after reviewing:\n%s",
					g.name, path, got)
			}
		}
	}
}
