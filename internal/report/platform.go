package report

import (
	"encoding/json"
	"sort"

	"rmtest/internal/lint"
	"rmtest/internal/schedlint"
)

// jsonPlatformTask is the exported form of one blocking-inclusive RTA
// result.
type jsonPlatformTask struct {
	Name        string  `json:"name"`
	Prio        int     `json:"prio"`
	PeriodMS    float64 `json:"period_ms"`
	WCETMS      float64 `json:"wcet_ms"`
	BlockingMS  float64 `json:"blocking_ms"`
	ResponseMS  float64 `json:"response_ms"`
	Schedulable bool    `json:"schedulable"`
}

// jsonPlatformQueue is the exported form of one queue-capacity bound.
type jsonPlatformQueue struct {
	Name      string   `json:"name"`
	Capacity  int      `json:"capacity"`
	Required  int      `json:"required"` // -1: no finite bound
	Producers []string `json:"producers,omitempty"`
	Consumers []string `json:"consumers,omitempty"`
}

// jsonPlatformReport is the exported form of one platform lint report.
type jsonPlatformReport struct {
	Fatal    int                 `json:"fatal"`
	Warn     int                 `json:"warn"`
	Info     int                 `json:"info"`
	Findings []jsonLintFinding   `json:"findings"`
	Blocking map[string]float64  `json:"blocking_ms"`
	Tasks    []jsonPlatformTask  `json:"tasks"`
	Queues   []jsonPlatformQueue `json:"queues"`
}

func platformDoc(rep *schedlint.Report) jsonPlatformReport {
	out := jsonPlatformReport{
		Fatal:    rep.Count(lint.Fatal),
		Warn:     rep.Count(lint.Warn),
		Info:     rep.Count(lint.Info),
		Findings: []jsonLintFinding{},
		Blocking: map[string]float64{},
		Tasks:    []jsonPlatformTask{},
		Queues:   []jsonPlatformQueue{},
	}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, jsonLintFinding{
			Code:     f.Code,
			Severity: f.Severity.String(),
			Where:    f.Where,
			Detail:   f.Detail,
		})
	}
	var tasks []jsonPlatformTask
	for _, r := range rep.Tasks {
		out.Blocking[r.Task.Name] = ms64(r.Task.Blocking)
		tasks = append(tasks, jsonPlatformTask{
			Name:        r.Task.Name,
			Prio:        r.Task.Prio,
			PeriodMS:    ms64(r.Task.Period),
			WCETMS:      ms64(r.Task.WCET),
			BlockingMS:  ms64(r.Task.Blocking),
			ResponseMS:  ms64(r.Response),
			Schedulable: r.Schedulable,
		})
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Prio > tasks[j].Prio })
	out.Tasks = tasks
	for _, q := range rep.Queues {
		out.Queues = append(out.Queues, jsonPlatformQueue{
			Name:      q.Name,
			Capacity:  q.Capacity,
			Required:  q.Required,
			Producers: q.Producers,
			Consumers: q.Consumers,
		})
	}
	return out
}

// CombinedLintJSON exports a chart lint report and a platform lint
// report as one JSON document, for `rmtest lint -json -platform`.
func CombinedLintJSON(chart *lint.Report, plat *schedlint.Report) ([]byte, error) {
	type combined struct {
		Chart    json.RawMessage    `json:"chart"`
		Platform jsonPlatformReport `json:"platform"`
	}
	cj, err := LintJSON(chart)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(combined{Chart: cj, Platform: platformDoc(plat)}, "", "  ")
}
