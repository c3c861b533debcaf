package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
)

const ms = time.Millisecond

func schemeReport(t *testing.T, scheme func() platform.Scheme, force bool, seed uint64) core.Report {
	t.Helper()
	runner, err := core.NewRunner(gpca.Factory(scheme), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	g := core.Generator{N: 5, Start: 50 * ms, Spacing: 4500 * ms, Strategy: core.JitteredSpacing, Seed: seed}
	tc, err := g.Generate(gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.RunRM(tc, force)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func allReports(t *testing.T) []core.Report {
	return []core.Report{
		schemeReport(t, func() platform.Scheme { return platform.DefaultScheme1() }, true, 1),
		schemeReport(t, func() platform.Scheme { return platform.DefaultScheme2() }, true, 1),
		schemeReport(t, func() platform.Scheme { return platform.DefaultScheme3() }, false, 1),
	}
}

func TestTableIRendering(t *testing.T) {
	out := TableI(allReports(t))
	for _, want := range []string{
		"TABLE I", "scheme1", "scheme2", "scheme3",
		"sample", "bound = 100.00 ms", "R-testing",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// Scheme 3 must show at least one violation marker or MAX.
	if !strings.Contains(out, "*") && !strings.Contains(out, "MAX") {
		t.Fatalf("scheme3 violations not visible:\n%s", out)
	}
	// Five sample rows.
	if !strings.Contains(out, "\n5       ") {
		t.Fatalf("row 5 missing:\n%s", out)
	}
}

func TestTableIEmpty(t *testing.T) {
	if !strings.Contains(TableI(nil), "no results") {
		t.Fatal("empty table should say so")
	}
}

func TestCSVRendering(t *testing.T) {
	reports := allReports(t)
	out := CSV(reports)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "scheme,sample,verdict,delay_ms,input_ms,codem_ms,output_ms" {
		t.Fatalf("header: %s", lines[0])
	}
	if len(lines) != 1+3*5 {
		t.Fatalf("expected 15 data rows, got %d", len(lines)-1)
	}
	if !strings.Contains(out, "scheme1,1,pass,") {
		t.Fatalf("csv rows:\n%s", out)
	}
}

func TestTransitionTableRendering(t *testing.T) {
	rep := schemeReport(t, func() platform.Scheme { return platform.DefaultScheme2() }, true, 2)
	if rep.M == nil {
		t.Fatal("forced M missing")
	}
	out := TransitionTable(*rep.M, false)
	for _, want := range []string{"Trans1", "Trans2", "Idle->BolusRequested", "BolusRequested->Infusion"} {
		if !strings.Contains(out, want) {
			t.Fatalf("transition table missing %q:\n%s", want, out)
		}
	}
}

func TestDiagramRendering(t *testing.T) {
	rep := schemeReport(t, func() platform.Scheme { return platform.DefaultScheme2() }, true, 3)
	var seg fourvar.Segments
	found := false
	for _, s := range rep.M.Samples {
		if s.SegmentsOK {
			seg = s.Segments
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no matched sample")
	}
	out := Diagram(seg, 72)
	for _, want := range []string{"Input-Delay", "CODE(M)-Delay", "Output-Delay", "Trans1-Delay", "m ", "c "} {
		if !strings.Contains(out, want) {
			t.Fatalf("diagram missing %q:\n%s", want, out)
		}
	}
	// Lanes carry exactly one event marker each.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "m ") || strings.HasPrefix(line, "i ") {
			if strings.Count(line, "*") != 1 {
				t.Fatalf("lane should have one marker: %q", line)
			}
		}
	}
}

func TestFindingsRendering(t *testing.T) {
	rep := schemeReport(t, func() platform.Scheme { return platform.DefaultScheme3() }, false, 4)
	out := Findings(rep.Diagnosis)
	if rep.R.Passed() {
		t.Skip("no violations this seed")
	}
	if !strings.Contains(out, "sample #") {
		t.Fatalf("findings:\n%s", out)
	}
	if Findings(nil) != "(no findings)\n" {
		t.Fatal("empty findings")
	}
}

func TestJSONExport(t *testing.T) {
	reports := allReports(t)
	data, err := JSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if len(parsed) != 3 {
		t.Fatalf("reports=%d", len(parsed))
	}
	if parsed[0]["scheme"] != "scheme1" || parsed[0]["requirement"] != "REQ1" {
		t.Fatalf("first report: %v", parsed[0])
	}
	samples := parsed[0]["samples"].([]any)
	if len(samples) != 5 {
		t.Fatalf("samples=%d", len(samples))
	}
	s0 := samples[0].(map[string]any)
	if s0["verdict"] != "pass" || s0["delay_ms"].(float64) <= 0 {
		t.Fatalf("sample 0: %v", s0)
	}
	if s0["segmented"] != true {
		t.Fatalf("segments missing: %v", s0)
	}
	// Scheme 3 carries diagnosis strings.
	if d, ok := parsed[2]["diagnosis"]; ok {
		if len(d.([]any)) == 0 {
			t.Fatal("empty diagnosis")
		}
	}
}

func TestDiagramDegenerate(t *testing.T) {
	if !strings.Contains(Diagram(fourvar.Segments{}, 40), "degenerate") {
		t.Fatal("degenerate sample not reported")
	}
}

func TestTableIShowsDashForMissingSegments(t *testing.T) {
	rep := schemeReport(t, func() platform.Scheme { return platform.DefaultScheme3() }, false, 1)
	out := TableI([]core.Report{rep})
	if !strings.Contains(out, "MAX") {
		t.Skip("no MAX sample this seed")
	}
	// MAX rows carry '-' placeholders for the segments.
	foundDash := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "MAX") && strings.Contains(line, "-") {
			foundDash = true
		}
	}
	if !foundDash {
		t.Fatalf("MAX row lacks segment placeholders:\n%s", out)
	}
}
