package rmtest_test

// Cross-check of the static-analysis layer against the dynamic
// experiments: the lint layer's WCET bounds must dominate every delay the
// M-level instrumentation measures, and response-time analysis must
// accept the lint-derived task budgets.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/lint"
	"rmtest/internal/platform"
)

// TestStaticWCETDominatesMeasured runs the Table I experiment on all
// three implementation schemes and checks that every measured transition
// delay stays within its transition's static fire bound and every
// measured CODE(M)-delay segment stays within the static triggered-step
// bound.
func TestStaticWCETDominatesMeasured(t *testing.T) {
	lrep, err := rmtest.Lint(rmtest.PumpChart(), rmtest.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lrep.Findings); n != 0 {
		t.Fatalf("pump chart should lint clean, got %d findings:\n%s", n, lrep)
	}
	fireBound := map[string]time.Duration{}
	for _, tw := range lrep.WCET.Transitions {
		fireBound[tw.Label] = tw.Fire
	}

	reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 8, Seed: 42, ForceM: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("expected 3 scheme reports, got %d", len(reports))
	}
	for _, rep := range reports {
		if rep.M == nil {
			t.Fatalf("%s: no M-level report (ForceM was set)", rep.R.Scheme)
		}
		for _, td := range rep.M.TransTrace.Records() {
			bound, ok := fireBound[td.Label]
			if !ok {
				t.Fatalf("%s: measured transition %q has no static bound", rep.R.Scheme, td.Label)
			}
			if d := time.Duration(td.Duration()); d > bound {
				t.Errorf("%s: transition %s measured %v > static fire bound %v",
					rep.R.Scheme, td.Label, d, bound)
			}
		}
		for _, s := range rep.M.Samples {
			if !s.SegmentsOK {
				continue
			}
			if d := time.Duration(s.Segments.CodeDelay()); d > lrep.WCET.StepTriggered {
				t.Errorf("%s: sample %d CODE(M)-delay %v > static step bound %v",
					rep.R.Scheme, s.Index, d, lrep.WCET.StepTriggered)
			}
		}
	}
}

// TestRTAFromStaticWCET checks that response-time analysis runs from the
// lint-derived budgets alone and predicts scheme-2 conformance.
func TestRTAFromStaticWCET(t *testing.T) {
	lrep, err := rmtest.Lint(rmtest.PumpChart(), rmtest.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	s2 := platform.DefaultScheme2()

	// The lint-derived task must be accepted by the analyzer on its own.
	task := rmtest.RTATask{Name: "codeM", Prio: s2.CodePrio, Period: s2.CodePeriod, WCET: lrep.WCET.Invocation(s2.CodePeriod)}
	if task.WCET <= 0 || task.WCET > task.Period {
		t.Fatalf("lint-derived task not well-formed: %+v", task)
	}
	results, err := rmtest.AnalyzeTasks([]rmtest.RTATask{task})
	if err != nil {
		t.Fatalf("rta rejected the lint-derived task: %v", err)
	}
	if !results[0].Schedulable {
		t.Fatalf("lint-derived task alone should be schedulable: %+v", results[0])
	}

	an, err := rmtest.AnalyzePipelineStatic(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if an.Bound < 0 {
		t.Fatal("static pipeline analysis found scheme 2 unschedulable")
	}
	if !an.PredictConforms {
		t.Errorf("static analysis should predict scheme-2 conformance, bound %v", an.Bound)
	}
}

// TestGenerateCheckedGate checks the lint gate on code generation end to
// end: clean charts pass, a chart with a fatal finding is rejected with
// the report attached.
func TestGenerateCheckedGate(t *testing.T) {
	if _, err := rmtest.GenerateChecked(rmtest.PumpChart(), rmtest.DefaultCostModel()); err != nil {
		t.Fatalf("clean chart rejected: %v", err)
	}
	bad := rmtest.CrossingChart()
	// before(0) can never fire: a fatal temporal-constant finding.
	bad.States[0].Transitions = append(bad.States[0].Transitions,
		rmtest.Transition{To: "Closed", Trigger: "before(0, E_CLK)", Label: "bogus"})
	_, err := rmtest.GenerateChecked(bad, rmtest.DefaultCostModel())
	if err == nil {
		t.Fatal("chart with a fatal finding should be rejected")
	}
	if !strings.HasPrefix(err.Error(), "codegen: program "+bad.Name+" rejected: ") {
		t.Errorf("rejection reads %q", err)
	}
	var rej *lint.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("rejection %v carries no *lint.RejectError", err)
	}
	if len(rej.Report.Fatal()) == 0 {
		t.Fatal("the attached report has no fatal finding")
	}
}
