package rmtest_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rmtest"
)

// TestTableIShape asserts the qualitative result of Table I: scheme 1
// conforms with the smallest delays, scheme 2 conforms with larger
// pipeline delays, and scheme 3 violates REQ1 with both late responses
// and MAX (lost) samples.
func TestTableIShape(t *testing.T) {
	reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 10, Seed: 42, ForceM: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports=%d", len(reports))
	}
	s1, s2, s3 := reports[0], reports[1], reports[2]
	if s1.R.Scheme != "scheme1" || s2.R.Scheme != "scheme2" || s3.R.Scheme != "scheme3" {
		t.Fatalf("scheme order wrong: %s %s %s", s1.R.Scheme, s2.R.Scheme, s3.R.Scheme)
	}
	if !s1.R.Passed() {
		t.Fatalf("scheme1 must pass REQ1: %v", s1.R.Samples)
	}
	if !s2.R.Passed() {
		t.Fatalf("scheme2 must pass REQ1 by construction: %v", s2.R.Samples)
	}
	if s3.R.Passed() {
		t.Fatalf("scheme3 must violate REQ1: %v", s3.R.Samples)
	}
	// Scheme 3 shows both failure modes of the paper's table: late
	// responses (red numbers) and MAX entries.
	var fails, maxes int
	for _, s := range s3.R.Samples {
		switch s.Verdict {
		case rmtest.Fail:
			fails++
		case rmtest.Max:
			maxes++
		}
	}
	if fails == 0 || maxes == 0 {
		t.Fatalf("scheme3 should show both FAIL and MAX: %d fails, %d maxes", fails, maxes)
	}
	// Mean delay ordering: scheme1 < scheme2 (the pipeline adds queueing
	// and actuation-task latency).
	mean := func(rep rmtest.Report) time.Duration {
		var sum time.Duration
		n := 0
		for _, s := range rep.R.Samples {
			if s.CObserved {
				sum += s.Delay
				n++
			}
		}
		return sum / time.Duration(n)
	}
	if mean(s1) >= mean(s2) {
		t.Fatalf("scheme1 mean %v should beat scheme2 mean %v", mean(s1), mean(s2))
	}
}

func TestTableIDeterministic(t *testing.T) {
	run := func() string {
		reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 5, Seed: 9, ForceM: true})
		if err != nil {
			t.Fatal(err)
		}
		return rmtest.RenderTableI(reports)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("Table I not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestFig3SegmentsIdentity(t *testing.T) {
	for _, scheme := range []rmtest.Scheme{rmtest.Scheme1(), rmtest.Scheme2()} {
		seg, err := rmtest.Fig3Experiment(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Total() != seg.InputDelay()+seg.CodeDelay()+seg.OutputDelay() {
			t.Fatalf("segment identity violated: %v", seg)
		}
		if len(seg.Transitions) != 2 {
			t.Fatalf("expected the two Fig. 3-(d) transitions, got %v", seg.Transitions)
		}
		if seg.TransitionTotal() <= 0 || seg.TransitionTotal() > seg.CodeDelay() {
			t.Fatalf("transition total %v vs code delay %v", seg.TransitionTotal(), seg.CodeDelay())
		}
		d := rmtest.RenderDiagram(seg, 72)
		if !strings.Contains(d, "Trans2-Delay") {
			t.Fatalf("diagram: %s", d)
		}
	}
}

func TestAblationBaselineYieldsLessInformation(t *testing.T) {
	info, err := rmtest.AblationBaselineVsRM(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if info.Violations == 0 {
		t.Fatal("expected violations on scheme 3")
	}
	if info.RMFacts <= 2*info.Violations {
		t.Fatalf("R-M should yield more diagnostic facts than the baseline's two per violation: %d vs %d", info.RMFacts, 2*info.Violations)
	}
	if len(info.Findings) == 0 {
		t.Fatal("missing findings")
	}
}

func TestAblationPeriodSweepMonotoneCodeDelay(t *testing.T) {
	periods := []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	points, err := rmtest.AblationPeriodSweep(periods, 6, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points=%d", len(points))
	}
	// The input segment includes waiting for the CODE(M) task release, so
	// the total grows with the period; the slowest configuration must be
	// strictly slower than the fastest.
	if points[0].MeanTotal >= points[2].MeanTotal {
		t.Fatalf("total delay should grow with code period: %v vs %v",
			points[0].MeanTotal, points[2].MeanTotal)
	}
	for _, p := range points {
		if p.PassRate < 0 || p.PassRate > 1 {
			t.Fatalf("pass rate %v", p.PassRate)
		}
	}
}

func TestFacadeVerifyGenerateEmit(t *testing.T) {
	chart := rmtest.PumpChart()
	res, err := rmtest.VerifyResponse(chart, rmtest.ResponseProperty{
		Name: "REQ1", Event: "i_BolusReq", InState: "Idle",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 1 },
		WithinTicks: 100,
	}, rmtest.VerifyOptions{})
	if err != nil || res.Outcome != rmtest.Holds {
		t.Fatalf("verify: %v %v", res, err)
	}
	prog, err := rmtest.Generate(chart)
	if err != nil {
		t.Fatal(err)
	}
	if prog.ChartName != "gpca" || len(prog.Trans) != 6 {
		t.Fatalf("program: %s %d", prog.ChartName, len(prog.Trans))
	}
	var b strings.Builder
	if err := rmtest.EmitGo(&b, chart, "gen"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "package gen") {
		t.Fatal("emitted source wrong")
	}
}

func TestFacadeSystemLifecycle(t *testing.T) {
	sys, err := rmtest.NewSystem(rmtest.PumpConfig(), rmtest.Scheme1(), rmtest.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys.Env.PulseAt(40*time.Millisecond, "sig_bolus_button", 1, 0, 60*time.Millisecond)
	sys.Run(time.Second)
	if sys.Env.Get("sig_pump_motor") < 1 {
		t.Fatal("bolus did not start")
	}
	if sys.Trace.Len() == 0 || len(sys.TransTrace.Records()) == 0 {
		t.Fatal("traces empty at M level")
	}
}

func TestRenderCSVFromExperiment(t *testing.T) {
	reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 3, Seed: 2, ForceM: true})
	if err != nil {
		t.Fatal(err)
	}
	csv := rmtest.RenderCSV(reports)
	if !strings.HasPrefix(csv, "scheme,sample,verdict") {
		t.Fatalf("csv: %s", csv)
	}
	if n := strings.Count(csv, "\n"); n != 1+3*3 {
		t.Fatalf("csv rows: %d", n)
	}
}

func TestRequirementsMatrix(t *testing.T) {
	cells, err := rmtest.RequirementsMatrix(4, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells=%d", len(cells))
	}
	byKey := map[string]rmtest.MatrixCell{}
	for _, c := range cells {
		byKey[c.Requirement+"/"+c.Scheme] = c
	}
	// Schemes 1 and 2 conform to every requirement.
	for _, req := range []string{"REQ1", "REQ2", "REQ3"} {
		for _, sch := range []string{"scheme1", "scheme2"} {
			c := byKey[req+"/"+sch]
			if !c.Conforms() {
				t.Fatalf("%s on %s should conform: %+v", req, sch, c)
			}
		}
	}
	// Scheme 3 violates at least REQ1.
	if byKey["REQ1/scheme3"].Conforms() {
		t.Fatalf("REQ1 on scheme3 should violate: %+v", byKey["REQ1/scheme3"])
	}
}

func TestFacadeInvariantAndDOT(t *testing.T) {
	res, err := rmtest.VerifyInvariant(rmtest.PumpChart(), rmtest.InvariantProperty{
		Name:  "no-motor-in-alarm",
		Reads: []string{"o_MotorState"},
		Holds: func(state string, vars map[string]int64) bool {
			return state != "EmptyAlarm" || vars["o_MotorState"] == 0
		},
	}, rmtest.VerifyOptions{})
	if err != nil || res.Outcome != rmtest.Holds {
		t.Fatalf("invariant: %v %v", res, err)
	}
	dot, err := rmtest.ChartDOT(rmtest.PumpChart())
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Fatalf("dot: %v %v", dot, err)
	}
}

// TestAnalyticBoundPredictsTableI cross-checks the static pipeline
// analysis against the measured Table I: scheme 2 is analytically
// schedulable with an end-to-end bound below 100 ms that dominates every
// observed delay; scheme 3's interference makes the pipeline
// unschedulable, predicting the violations R-testing finds.
func TestAnalyticBoundPredictsTableI(t *testing.T) {
	s2 := rmtest.Scheme2().(*rmtest.Scheme2Config)
	an2, err := rmtest.AnalyzePipelineStatic(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !an2.PredictConforms {
		t.Fatalf("scheme2 should be predicted conformant: bound=%v", an2.Bound)
	}
	if an2.Bound <= 0 || an2.Bound > 100*time.Millisecond {
		t.Fatalf("scheme2 bound %v out of range", an2.Bound)
	}
	// The bound dominates the measured delays.
	reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range reports[1].R.Samples {
		if s.CObserved && s.Delay > an2.Bound {
			t.Fatalf("observed %v exceeds analytic bound %v", s.Delay, an2.Bound)
		}
	}
	// Scheme 3: the netdrv burst starves the pipeline; analysis predicts
	// the violation.
	s3 := rmtest.Scheme3().(*rmtest.Scheme3Config)
	an3, err := rmtest.AnalyzePipelineStatic(&s3.Scheme2, s3.Interference)
	if err != nil {
		t.Fatal(err)
	}
	if an3.PredictConforms {
		t.Fatalf("scheme3 should be predicted violating: bound=%v", an3.Bound)
	}
}

// TestExperimentsDocNumbers pins the seed-42 Table I spot values quoted
// in EXPERIMENTS.md, so the documentation cannot silently rot when the
// platform physics change. Update EXPERIMENTS.md together with this test.
func TestExperimentsDocNumbers(t *testing.T) {
	reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 10, Seed: 42, ForceM: true})
	if err != nil {
		t.Fatal(err)
	}
	msRound := func(d time.Duration) float64 {
		return float64(d.Round(10*time.Microsecond)) / float64(time.Millisecond)
	}
	// Scheme 1, samples 1 and 8.
	if got := msRound(reports[0].R.Samples[0].Delay); got != 14.78 {
		t.Fatalf("scheme1 sample1 = %.2f, want 14.78 (update EXPERIMENTS.md)", got)
	}
	if got := msRound(reports[0].R.Samples[7].Delay); got != 13.22 {
		t.Fatalf("scheme1 sample8 = %.2f, want 13.22 (update EXPERIMENTS.md)", got)
	}
	// Scheme 2, sample 5.
	if got := msRound(reports[1].R.Samples[4].Delay); got != 61.39 {
		t.Fatalf("scheme2 sample5 = %.2f, want 61.39 (update EXPERIMENTS.md)", got)
	}
	// Scheme 3, sample 4 is the 155.84 FAIL, sample 8 the 117.62 FAIL;
	// sample 2 is MAX.
	if got := reports[2].R.Samples[3]; got.Verdict != rmtest.Fail || msRound(got.Delay) != 155.84 {
		t.Fatalf("scheme3 sample4 = %v %.2f, want FAIL 155.84 (update EXPERIMENTS.md)", got.Verdict, msRound(got.Delay))
	}
	if got := reports[2].R.Samples[7]; got.Verdict != rmtest.Fail || msRound(got.Delay) != 117.62 {
		t.Fatalf("scheme3 sample8 = %v %.2f, want FAIL 117.62 (update EXPERIMENTS.md)", got.Verdict, msRound(got.Delay))
	}
	if reports[2].R.Samples[1].Verdict != rmtest.Max {
		t.Fatalf("scheme3 sample2 should be MAX (update EXPERIMENTS.md)")
	}
}

// TestCampaignTableIMatchesSequentialGolden pins the campaign engine's
// central promise: the parallel experiment produces byte-identical output
// to the sequential one, and both reproduce the pre-campaign-engine CSV
// captured in testdata (generated by `tablei -n 10 -seed 42 -csv` before
// the engine existed).
func TestCampaignTableIMatchesSequentialGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/tablei_seed42_prepr.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{
			Samples: 10, Seed: 42, ForceM: true, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rmtest.RenderCSV(reports); got != string(golden) {
			t.Errorf("workers=%d diverges from the sequential golden:\n%s", workers, got)
		}
	}
}

// TestCampaignMatrixMatchesSequentialGolden is the same determinism pin
// for the 9-cell requirements matrix.
func TestCampaignMatrixMatchesSequentialGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/matrix_s4_seed42_prepr.csv")
	if err != nil {
		t.Fatal(err)
	}
	render := func(cells []rmtest.MatrixCell) string {
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%s,%s,%d,%d,%d\n", c.Requirement, c.Scheme, c.Pass, c.Fail, c.Max)
		}
		return b.String()
	}
	for _, workers := range []int{1, 8} {
		cells, err := rmtest.RequirementsMatrix(4, 42, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := render(cells); got != string(golden) {
			t.Errorf("workers=%d diverges from the sequential golden:\n%s", workers, got)
		}
	}
}

// FuzzCampaignDeterminism checks the campaign engine's determinism
// contract on fuzzed seeds across the three campaign experiments: the
// selector picks Table I (1–3 samples), the fault sweep (1–2 samples) or
// the generation suite (budget 8–16), and the rendered CSV at one
// worker, the sequential reference, must equal the one at three
// workers byte for byte. For the generation suite, whose searches run
// at once with more than one worker, so must the reuse report.
func FuzzCampaignDeterminism(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, sel byte) {
		param := int(sel / 3)
		var render func(workers int) (string, error)
		switch sel % 3 {
		case 0:
			samples := 1 + param%3
			render = func(workers int) (string, error) {
				reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{
					Samples: samples, Seed: seed, ForceM: true, Workers: workers,
				})
				return rmtest.RenderCSV(reports), err
			}
		case 1:
			samples := 1 + param%2
			render = func(workers int) (string, error) {
				res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{
					Samples: samples, Seed: seed, Workers: workers,
				})
				return rmtest.RenderFaultCSV(res.Attributions), err
			}
		default:
			budget := 8 + param%9
			render = func(workers int) (string, error) {
				runs, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{
					Budget: budget, Seed: seed, Workers: workers,
				})
				return rmtest.RenderGenCSV(runs) + rmtest.RenderGenReuse(runs), err
			}
		}
		want, err := render(1)
		if err != nil {
			t.Fatalf("seed %d, selector %d, workers=1: %v", seed, sel, err)
		}
		got, err := render(3)
		if err != nil {
			t.Fatalf("seed %d, selector %d, workers=3: %v", seed, sel, err)
		}
		if got != want {
			t.Errorf("seed %d, selector %d: workers=3 deviates from workers=1:\n%s\nwant:\n%s", seed, sel, got, want)
		}
	})
}

// TestCampaignProgressThroughTableI exercises the progress callback on a
// real experiment. The experiment runs two campaign phases (R sweep, then
// M sweep), each with fresh counters, so the test checks per-callback
// sanity and that the last phase ends complete.
func TestCampaignProgressThroughTableI(t *testing.T) {
	var mu sync.Mutex
	var last rmtest.CampaignProgress
	calls := 0
	_, err := rmtest.TableIExperiment(rmtest.TableIOptions{
		Samples: 2, Seed: 1, Workers: 2,
		Progress: func(p rmtest.CampaignProgress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done < 1 || p.Done > p.Total || p.Elapsed <= 0 {
				t.Errorf("implausible progress: %+v", p)
			}
			last = p
			calls++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 || last.Done != last.Total || last.Failed != 0 {
		t.Fatalf("progress incomplete: calls=%d last=%+v", calls, last)
	}
}
