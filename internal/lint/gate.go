package lint

import (
	"fmt"
	"strings"

	"rmtest/internal/codegen"
	"rmtest/internal/statechart"
)

// RejectError is returned when a program fails the fatal-finding gate;
// it carries the full report for rendering.
type RejectError struct {
	Report *Report
}

func (e *RejectError) Error() string {
	fatal := e.Report.Fatal()
	labels := make([]string, 0, len(fatal))
	for _, f := range fatal {
		labels = append(labels, f.Code+"("+f.Where+")")
	}
	return fmt.Sprintf("%d fatal lint finding(s): %s",
		len(fatal), strings.Join(labels, ", "))
}

// GenerateChecked compiles the chart and rejects the program when static
// analysis reports a fatal finding, returning an error that wraps a
// *RejectError carrying the report.
func GenerateChecked(cc *statechart.Compiled, cost codegen.CostModel) (*codegen.Program, error) {
	p, err := codegen.Generate(cc)
	if err != nil {
		return nil, err
	}
	if rep := AnalyzeCompiled(cc.Chart(), cc, p, cost); len(rep.Fatal()) > 0 {
		return nil, fmt.Errorf("codegen: program %s rejected: %w", p.ChartName, &RejectError{Report: rep})
	}
	return p, nil
}
