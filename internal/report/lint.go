package report

import (
	"encoding/json"

	"rmtest/internal/lint"
)

// jsonLintFinding is the exported form of one static-analysis finding.
type jsonLintFinding struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Where    string `json:"where"`
	Detail   string `json:"detail"`
}

// jsonLintTrans is the exported form of one transition's static bounds.
type jsonLintTrans struct {
	ID      int     `json:"id"`
	Label   string  `json:"label"`
	GuardMS float64 `json:"guard_ms"`
	FireMS  float64 `json:"fire_ms"`
}

// jsonLintWCET is the exported form of the static WCET summary.
type jsonLintWCET struct {
	TickMS          float64         `json:"tick_ms,omitempty"`
	StepTriggeredMS float64         `json:"step_triggered_ms"`
	StepQuiescentMS float64         `json:"step_quiescent_ms"`
	MaxTransMS      float64         `json:"max_transition_ms"`
	MaxTransLabel   string          `json:"max_transition_label,omitempty"`
	ChainCapped     bool            `json:"chain_capped,omitempty"`
	Transitions     []jsonLintTrans `json:"transitions"`
}

// jsonLintReport is the exported form of one chart's lint report.
type jsonLintReport struct {
	Chart    string            `json:"chart"`
	Fatal    int               `json:"fatal"`
	Warn     int               `json:"warn"`
	Info     int               `json:"info"`
	Findings []jsonLintFinding `json:"findings"`
	WCET     jsonLintWCET      `json:"wcet"`
}

// LintJSON exports a static-analysis report as indented JSON.
func LintJSON(rep *lint.Report) ([]byte, error) {
	out := jsonLintReport{
		Chart:    rep.Chart,
		Fatal:    rep.Count(lint.Fatal),
		Warn:     rep.Count(lint.Warn),
		Info:     rep.Count(lint.Info),
		Findings: []jsonLintFinding{},
		WCET: jsonLintWCET{
			TickMS:          ms64(rep.WCET.TickPeriod),
			StepTriggeredMS: ms64(rep.WCET.StepTriggered),
			StepQuiescentMS: ms64(rep.WCET.StepQuiescent),
			MaxTransMS:      ms64(rep.WCET.MaxTransition),
			MaxTransLabel:   rep.WCET.MaxTransitionLabel,
			ChainCapped:     rep.WCET.ChainCapped,
			Transitions:     []jsonLintTrans{},
		},
	}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, jsonLintFinding{
			Code:     f.Code,
			Severity: f.Severity.String(),
			Where:    f.Where,
			Detail:   f.Detail,
		})
	}
	for _, t := range rep.WCET.Transitions {
		out.WCET.Transitions = append(out.WCET.Transitions, jsonLintTrans{
			ID:      t.ID,
			Label:   t.Label,
			GuardMS: ms64(t.Guard),
			FireMS:  ms64(t.Fire),
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
