package rmtest_test

import (
	"testing"

	"rmtest"
)

// TestAblationAndFig3Recorded pins the A1 ablation's counts and findings
// and the Fig. 3 segments of schemes 1–3 exactly. The values were recorded
// when A1 judged its baseline with a separate online monitor and Fig. 3
// matched its own chain, so they check that R-testing's verdicts and
// Runner.AnnotateM reproduce both.
func TestAblationAndFig3Recorded(t *testing.T) {
	const (
		lost   = ": the stimulus never reached CODE(M) as an i-event: the Input-Device path lost it (sensing task blocked past the physical pulse, or input queue drop)"
		outDom = ": the Output-Device path (queueing to the actuation task + actuation latency) is too slow"
		inDom  = ": the Input-Device path (sensor sampling + sensing-task latency + queueing into CODE(M)) is too slow or starved"
	)
	for _, c := range []struct {
		samples  int
		seed     uint64
		counts   [2]int // violations, R-M facts
		findings []string
	}{
		{10, 42, [2]int{6, 16}, []string{
			"sample #1 [MAX]" + lost,
			"sample #2 [MAX]" + lost,
			"sample #3 [FAIL]: output-delay 102.792ms dominates the 155.838776ms total (66%)" + outDom,
			"sample #4 [MAX]" + lost,
			"sample #7 [FAIL]: input-delay 104.593299ms dominates the 117.623299ms total (89%)" + inDom,
			"sample #9 [MAX]" + lost,
		}},
		{8, 7, [2]int{6, 31}, []string{
			"sample #0 [FAIL]: output-delay 102.792ms dominates the 156.163337ms total (66%)" + outDom,
			"sample #1 [FAIL]: output-delay 102.792ms dominates the 166.581051ms total (62%)" + outDom,
			"sample #3 [FAIL]: output-delay 102.792ms dominates the 177.447169ms total (58%)" + outDom,
			"sample #4 [FAIL]: input-delay 89.795344ms dominates the 102.765344ms total (87%)" + inDom,
			"sample #5 [MAX]" + lost,
			"sample #7 [FAIL]: input-delay 96.408885ms dominates the 109.438885ms total (88%)" + inDom,
		}},
	} {
		info, err := rmtest.AblationBaselineVsRM(c.samples, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]int{info.Violations, info.RMFacts}
		if got != c.counts {
			t.Errorf("A1(%d, %d) = %v, want %v", c.samples, c.seed, got, c.counts)
		}
		if len(info.Findings) != len(c.findings) {
			t.Fatalf("A1(%d, %d): %d findings, want %d", c.samples, c.seed, len(info.Findings), len(c.findings))
		}
		for i, f := range info.Findings {
			if f.String() != c.findings[i] {
				t.Errorf("A1(%d, %d) finding %d:\n got %s\nwant %s", c.samples, c.seed, i, f, c.findings[i])
			}
		}
	}

	for _, c := range []struct {
		scheme rmtest.Scheme
		want   string
	}{
		{rmtest.Scheme1(), "m@40ms -> i@50.06ms -> o@50.178ms -> c@53.688ms | input=10.06ms code=118µs output=3.51ms total=13.688ms\n" +
			"  trans Idle->BolusRequested [50.08ms..50.12ms] = 40µs\n" +
			"  trans BolusRequested->Infusion [50.12ms..50.178ms] = 58µs"},
		{rmtest.Scheme2(), "m@40ms -> i@40.06ms -> o@40.178ms -> c@63.09ms | input=60µs code=118µs output=22.912ms total=23.09ms\n" +
			"  trans Idle->BolusRequested [40.08ms..40.12ms] = 40µs\n" +
			"  trans BolusRequested->Infusion [40.12ms..40.178ms] = 58µs"},
		{rmtest.Scheme3(), "m@40ms -> i@80.06ms -> o@80.178ms -> c@103.09ms | input=40.06ms code=118µs output=22.912ms total=63.09ms\n" +
			"  trans Idle->BolusRequested [80.08ms..80.12ms] = 40µs\n" +
			"  trans BolusRequested->Infusion [80.12ms..80.178ms] = 58µs"},
	} {
		seg, err := rmtest.Fig3Experiment(c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if got := seg.String(); got != c.want {
			t.Errorf("Fig. 3 on %s:\n got %q\nwant %q", c.scheme.Name(), got, c.want)
		}
	}
}
