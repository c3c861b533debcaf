// Package rmtest is a layered timing-conformance testing framework for
// model-based implementations, reproducing Kim et al., "A Layered
// Approach for Testing Timing in the Model-Based Implementation"
// (DATE 2014).
//
// The framework covers the paper's whole flow:
//
//  1. Model a control system as a timed statechart (Chart) and verify its
//     timing requirements at model level (VerifyResponse — the Simulink
//     Design Verifier step).
//  2. Generate code from the chart (Generate / EmitGo — the
//     RealTimeWorkshop step). The generated program runs on a simulated
//     platform: a FreeRTOS-like scheduler, sensors and actuators with
//     device latencies, and a scripted physical environment.
//  3. Integrate CODE(M) with the platform under one of the paper's three
//     implementation schemes (Scheme1/2/3) and test the implemented
//     system with the layered R-M flow: R-testing checks the (m, c)
//     deadline and, on violation, M-testing measures the Input-,
//     CODE(M)-, Output- and per-transition delay segments that compose
//     the deviation (Runner.RunRM).
//
// The GPCA infusion pump case study, with the paper's REQ1 ("a bolus dose
// shall be started within 100 ms"), ships in this package: see PumpConfig,
// PumpREQ1, and the Table I / Fig. 3 experiment drivers in experiments.go.
package rmtest

import (
	"io"

	"rmtest/internal/campaign"
	"rmtest/internal/codegen"
	"rmtest/internal/core"
	"rmtest/internal/coverage"
	"rmtest/internal/env"
	"rmtest/internal/faults"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/hw"
	"rmtest/internal/lint"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
	"rmtest/internal/report"
	"rmtest/internal/rta"
	"rmtest/internal/rtos"
	"rmtest/internal/schedlint"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
	"rmtest/internal/tcgen"
	"rmtest/internal/verify"
)

// Modelling layer.
type (
	// Chart is a timed statechart model (the Stateflow stand-in).
	Chart = statechart.Chart
	// State is one chart state.
	State = statechart.State
	// Transition is one chart transition.
	Transition = statechart.Transition
	// VarDecl declares a chart variable.
	VarDecl = statechart.VarDecl
)

// Chart variable kinds and types.
const (
	In    = statechart.Input
	Out   = statechart.Output
	Local = statechart.Local
	Bool  = statechart.Bool
	Int   = statechart.Int
)

// Verification layer (Design Verifier stand-in). The checker explores
// the program a chart compiles to on CODE(M)'s bytecode VM, with no
// execution cost, the one chart runtime the platform also runs.
type (
	// ResponseProperty is a model-level timing requirement.
	ResponseProperty = verify.ResponseProperty
	// VerifyOptions bounds the exploration.
	VerifyOptions = verify.Options
	// VerifyResult is a verification verdict.
	VerifyResult = verify.Result
)

// Verification outcomes.
const (
	Holds    = verify.Holds
	Violated = verify.Violated
	Bounded  = verify.Bounded
)

// Code-generation layer (RealTimeWorkshop stand-in).
type (
	// Program is the generated-code artifact (CODE(M)).
	Program = codegen.Program
	// CostModel maps generated-code structure to execution time.
	CostModel = codegen.CostModel
)

// Platform layer.
type (
	// PlatformConfig assembles chart, board and bindings.
	PlatformConfig = platform.Config
	// System is one assembled implemented system.
	System = platform.System
	// Scheme integrates CODE(M) with the platform.
	Scheme = platform.Scheme
	// Scheme1Config is the single-threaded scheme.
	Scheme1Config = platform.Scheme1
	// Scheme2Config is the multi-threaded pipeline scheme.
	Scheme2Config = platform.Scheme2
	// Scheme3Config adds interference threads to Scheme2.
	Scheme3Config = platform.Scheme3
	// BoardConfig wires sensors and actuators to environment signals.
	BoardConfig = hw.BoardConfig
	// SensorConfig describes an input device.
	SensorConfig = hw.SensorConfig
	// ActuatorConfig describes an output device.
	ActuatorConfig = hw.ActuatorConfig
	// InputBinding routes a sensor to a chart event/variable.
	InputBinding = platform.InputBinding
	// OutputBinding routes a chart output to an actuator.
	OutputBinding = platform.OutputBinding
	// Environment is the scripted physical world.
	Environment = env.Environment
)

// Instrument selects the probe layer (R or M).
type Instrument = platform.Instrument

// Instrumentation levels of the layered approach.
const (
	RLevel = platform.RLevel
	MLevel = platform.MLevel
)

// Testing layer (the paper's contribution).
type (
	// Requirement is a timing requirement over (m, c) event pairs.
	Requirement = core.Requirement
	// StimulusSpec shapes the physical stimulus.
	StimulusSpec = core.StimulusSpec
	// ResponseSpec identifies the expected response.
	ResponseSpec = core.ResponseSpec
	// TestCase is a deterministic stimulus schedule.
	TestCase = core.TestCase
	// Generator derives test cases from requirements.
	Generator = core.Generator
	// Runner executes R- and M-testing.
	Runner = core.Runner
	// RReport is an R-testing result.
	RReport = core.RResult
	// MReport is an M-testing result.
	MReport = core.MResult
	// Report is the layered R->M outcome.
	Report = core.Report
	// Finding is one diagnosis.
	Finding = core.Finding
	// SystemFactory builds fresh systems per test run.
	SystemFactory = core.SystemFactory
	// Segments is one matched m->i->o->c delay decomposition.
	Segments = fourvar.Segments
	// Segment names one leg of the delay decomposition (input, CODE(M),
	// output); fault attribution reports expectations and verdicts in it.
	Segment = core.Segment
)

// Verdicts.
const (
	Pass = core.Pass
	Fail = core.Fail
	Max  = core.Max
)

// Delay segments.
const (
	SegInput  = core.SegInput
	SegCode   = core.SegCode
	SegOutput = core.SegOutput
	SegNone   = core.SegNone
)

// Test-case generation strategies.
const (
	UniformSpacing  = core.UniformSpacing
	JitteredSpacing = core.JitteredSpacing
	PhaseSweep      = core.PhaseSweep
)

// Time is a virtual-time instant or span.
type Time = sim.Time

// CampaignProgress is a progress/throughput snapshot of the campaign
// engine (internal/campaign), which executes independent experiment runs
// in parallel with deterministic results.
type CampaignProgress = campaign.Progress

// VerifyResponse checks a model-level timing property on a chart, by
// exploring the chart's generated program.
func VerifyResponse(c *Chart, prop ResponseProperty, opt VerifyOptions) (VerifyResult, error) {
	cc, err := c.Compile()
	if err != nil {
		return VerifyResult{}, err
	}
	return verify.CheckResponse(cc, prop, opt)
}

// Generate compiles a chart into its generated-code Program.
func Generate(c *Chart) (*Program, error) {
	cc, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return codegen.Generate(cc)
}

// EmitGo writes readable generated Go source for the chart.
func EmitGo(w io.Writer, c *Chart, pkg string) error {
	cc, err := c.Compile()
	if err != nil {
		return err
	}
	return codegen.EmitGo(w, cc, pkg)
}

// DefaultCostModel is the default generated-code execution-cost model.
func DefaultCostModel() CostModel { return codegen.DefaultCostModel() }

// NewSystem assembles an implemented system from a platform
// configuration, a scheme and an instrumentation level.
func NewSystem(cfg PlatformConfig, scheme Scheme, level platform.Instrument) (*System, error) {
	return platform.NewSystem(cfg, scheme, level)
}

// NewRunner builds an R-M testing runner.
func NewRunner(factory SystemFactory, req Requirement) (*Runner, error) {
	return core.NewRunner(factory, req)
}

// Scheme constructors with the paper's case-study parameters.
func Scheme1() Scheme { return platform.DefaultScheme1() }

// Scheme2 returns the multi-threaded pipeline scheme (20/40/20 ms).
func Scheme2() Scheme { return platform.DefaultScheme2() }

// Scheme3 returns Scheme2 plus the three interference threads.
func Scheme3() Scheme { return platform.DefaultScheme3() }

// GPCA case study re-exports.
var (
	// PumpChart returns the Fig. 2 infusion pump model.
	PumpChart = gpca.Chart
	// PumpExtendedChart returns the larger GPCA model.
	PumpExtendedChart = gpca.ExtendedChart
	// PumpConfig returns the full pump platform configuration.
	PumpConfig = gpca.PlatformConfig
	// PumpREQ1 is the paper's 100 ms bolus-start requirement.
	PumpREQ1 = gpca.REQ1
	// PumpREQ2 is the 250 ms empty-alarm requirement.
	PumpREQ2 = gpca.REQ2
	// PumpREQ3 is the 200 ms alarm-clear requirement.
	PumpREQ3 = gpca.REQ3
	// PumpFactory builds pump systems for a scheme constructor.
	PumpFactory = gpca.Factory
)

// Equals matches event values equal to v.
func Equals(v int64) core.ValuePred { return core.Equals(v) }

// AtLeast matches event values of at least v.
func AtLeast(v int64) core.ValuePred { return core.AtLeast(v) }

// RenderTableI renders per-scheme reports as the paper's Table I.
func RenderTableI(reports []Report) string { return report.TableI(reports) }

// RenderCSV exports per-sample rows as CSV.
func RenderCSV(reports []Report) string { return report.CSV(reports) }

// RenderJSON exports per-scheme reports as indented JSON.
func RenderJSON(reports []Report) ([]byte, error) { return report.JSON(reports) }

// RenderDiagram renders a Fig. 3 style timing diagram of one sample.
func RenderDiagram(seg Segments, width int) string { return report.Diagram(seg, width) }

// RenderTransitions renders per-transition delays (Fig. 3-(d)).
func RenderTransitions(m MReport, onlyViolations bool) string {
	return report.TransitionTable(m, onlyViolations)
}

// RenderFindings renders diagnosis findings.
func RenderFindings(fs []Finding) string { return report.Findings(fs) }

// Fault-injection layer (deterministic seeded fault plans compiled onto
// the virtual-time kernel, with layered fault attribution).
type (
	// Fault is one windowed fault activation.
	Fault = faults.Fault
	// FaultClass selects a fault's injection mechanism.
	FaultClass = faults.Class
	// FaultPlan is a named list of fault activations.
	FaultPlan = faults.Plan
	// FaultAttribution is one row of the fault-attribution table.
	FaultAttribution = faults.Attribution
)

// Fault classes, one per injection mechanism across the layers.
const (
	FaultSensorStuck     = faults.SensorStuck
	FaultSensorDropout   = faults.SensorDropout
	FaultSensorLatency   = faults.SensorLatency
	FaultActuatorLatency = faults.ActuatorLatency
	FaultActuatorDead    = faults.ActuatorDead
	FaultTaskOverrun     = faults.TaskOverrun
	FaultISRStorm        = faults.ISRStorm
	FaultQueueDrop       = faults.QueueDrop
	FaultClockDrift      = faults.ClockDrift
	// FaultNone is the pseudo-class of the empty (baseline) plan.
	FaultNone = faults.ClassNone
)

// RenderFaultTable renders fault attributions for humans.
func RenderFaultTable(attrs []FaultAttribution) string { return report.FaultTable(attrs) }

// RenderFaultCSV exports fault attributions as CSV.
func RenderFaultCSV(attrs []FaultAttribution) string { return report.FaultCSV(attrs) }

// CoverageReport aggregates the test-adequacy dimensions of an executed
// suite (the paper's future-work direction, implemented in
// internal/coverage).
type CoverageReport = coverage.Report

// PhaseCoverage is the stimulus phase-space adequacy dimension.
type PhaseCoverage = coverage.PhaseCoverage

// MeasureCoverage computes transition, state, phase and boundary adequacy
// for an executed M-testing run. phasePeriod is the platform period whose
// stimulus alignment matters (typically the CODE(M) task period).
func MeasureCoverage(m MReport, phasePeriod Time, bins int) CoverageReport {
	return coverage.Measure(m.Program, m.TransTrace, m, phasePeriod, bins)
}

// SuggestStimuli proposes additional stimulus instants that target the
// uncovered phase bins, systematically extending a test case.
func SuggestStimuli(pc PhaseCoverage, after, spacing Time) []Time {
	return coverage.Suggest(pc, after, spacing)
}

// SuggestScenarios explains how to reach each uncovered transition of the
// generated code (which state to reach and which event or dwell fires it).
func SuggestScenarios(m MReport, cov CoverageReport) []string {
	return coverage.TransitionHints(m.Program, cov.Transitions)
}

// InvariantProperty is a model-level safety property (AG pred).
type InvariantProperty = verify.InvariantProperty

// VerifyInvariant checks a safety invariant on every reachable model
// configuration, by exploring the chart's generated program.
func VerifyInvariant(c *Chart, prop InvariantProperty, opt VerifyOptions) (VerifyResult, error) {
	cc, err := c.Compile()
	if err != nil {
		return VerifyResult{}, err
	}
	return verify.CheckInvariant(cc, prop, opt)
}

// ChartDOT renders a chart as a Graphviz digraph.
func ChartDOT(c *Chart) (string, error) {
	cc, err := c.Compile()
	if err != nil {
		return "", err
	}
	return cc.DOT(), nil
}

// RenderGantt renders a scheduler trace window as an ASCII Gantt chart.
func RenderGantt(tr *rtos.Trace, from, to Time, width int) string {
	return report.Gantt(tr, from, to, width)
}

// RenderTaskLoads renders per-task CPU consumption of a finished run.
func RenderTaskLoads(s *rtos.Scheduler) string { return report.TaskLoads(s) }

// WriteVCD dumps a four-variable trace as an IEEE 1364 Value Change Dump
// for waveform viewers (GTKWave etc.).
func WriteVCD(w io.Writer, tr *fourvar.Trace, comment string) error {
	return report.VCD(w, tr, comment)
}

// Response-time analysis (analytic counterpart of R-testing).
type (
	// RTATask describes one periodic task for response-time analysis.
	RTATask = rta.Task
	// RTAResult is one task's analytic worst-case response time.
	RTAResult = rta.Result
)

// AnalyzeTasks runs fixed-priority response-time analysis on a task set.
func AnalyzeTasks(tasks []RTATask) ([]RTAResult, error) { return rta.Analyze(tasks) }

// RenderRTA renders analysis results, highest priority first.
func RenderRTA(results []RTAResult) string { return rta.String(results) }

// Static-analysis layer (internal/lint).
type (
	// LintReport is the result of statically analyzing one chart: the
	// findings plus the static WCET bounds.
	LintReport = lint.Report
	// LintFinding is one static-analysis diagnostic.
	LintFinding = lint.Finding
	// LintSeverity grades findings (LintInfo, LintWarn, LintFatal).
	LintSeverity = lint.Severity
	// StaticWCET is the static worst-case execution-time summary derived
	// from the generated code and the cost model.
	StaticWCET = lint.WCETReport
)

// Lint finding severities.
const (
	LintInfo  = lint.Info
	LintWarn  = lint.Warn
	LintFatal = lint.Fatal
)

// Lint statically analyses a chart and its generated code: reachability,
// guard determinism, variable usage, temporal sanity, bytecode stack and
// division checks, and static WCET bounds for every transition and step.
func Lint(c *Chart, cost CostModel) (*LintReport, error) {
	return lint.Analyze(c, cost)
}

// GenerateChecked compiles a chart into its Program and rejects it when
// static analysis reports any fatal finding.
func GenerateChecked(c *Chart, cost CostModel) (*Program, error) {
	cc, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return lint.GenerateChecked(cc, cost)
}

// RenderLint renders a lint report as human text.
func RenderLint(rep *LintReport) string { return rep.String() }

// RenderLintJSON exports a lint report as indented JSON.
func RenderLintJSON(rep *LintReport) ([]byte, error) { return report.LintJSON(rep) }

// Platform static-analysis layer (internal/schedlint): response-time
// bounds and queue-capacity bounds over a declared platform
// configuration of periodic tasks connected by FIFO queues.
type (
	// PlatformLintConfig declares the platform: tasks and queues.
	PlatformLintConfig = schedlint.Config
	// PlatformTaskSpec declares one task's scheduling parameters and
	// queue traffic.
	PlatformTaskSpec = schedlint.TaskSpec
	// PlatformQueueSpec declares one FIFO queue.
	PlatformQueueSpec = schedlint.QueueSpec
	// PlatformQueueUse declares one task's per-release queue traffic.
	PlatformQueueUse = schedlint.QueueUse
	// PlatformReport is the platform static-analysis outcome.
	PlatformReport = schedlint.Report
)

// PlatformLint statically analyses a declared platform configuration.
func PlatformLint(cfg PlatformLintConfig) (*PlatformReport, error) {
	return schedlint.Analyze(cfg)
}

// RenderPlatformLint renders a platform lint report as human text.
func RenderPlatformLint(rep *PlatformReport) string { return rep.String() }

// RenderCombinedLintJSON exports a chart lint report and a platform lint
// report as one JSON document.
func RenderCombinedLintJSON(chart *LintReport, plat *PlatformReport) ([]byte, error) {
	return report.CombinedLintJSON(chart, plat)
}

// MeasuredResponses extracts each task's worst observed response time
// from a scheduler trace — the measured counterpart of the static
// response-time bounds, used by the dominance cross-checks.
func MeasuredResponses(recs []rtos.TraceRecord) map[string]Time {
	return schedlint.MeasuredResponses(recs)
}

// Railroad-crossing case study re-exports (the second worked example).
var (
	// CrossingChart returns the crossing-gate controller model.
	CrossingChart = railcrossing.Chart
	// CrossingConfig returns the full crossing platform configuration.
	CrossingConfig = railcrossing.PlatformConfig
	// CrossingRequirements returns the XING-1/XING-2 catalogue.
	CrossingRequirements = railcrossing.Requirements
)

// Test-case generation subsystem (internal/tcgen): coverage-guided
// generation, falsification search and schedule shrinking, all
// evaluated through the deterministic campaign engine.
type (
	// GenStimulus is one timed environment pulse of a generated schedule.
	GenStimulus = tcgen.Stimulus
	// GenSchedule is a named, time-ordered stimulus schedule.
	GenSchedule = tcgen.Schedule
	// GenTarget fixes the system, requirement and shaping parameters a
	// generator works against.
	GenTarget = tcgen.Target
	// GenOptions bounds and seeds one generator invocation.
	GenOptions = tcgen.Options
	// GenResult is one strategy's outcome: the schedule, its verdicts,
	// adequacy, worst response and search effort.
	GenResult = tcgen.Result
	// TestGenerator is a test-case generation strategy. (Generator names
	// the core stimulus-spacing generator; this is the search layer.)
	TestGenerator = tcgen.Generator
	// GenRun is one chart's generation pipeline outcome for rendering.
	GenRun = report.GenRun
)

// CoverageDirectedGenerator returns the generator that extends a seeded
// schedule with adequacy feedback (uncovered transitions, empty phase
// bins, missing boundary-band delays) until the target adequacy or the
// evaluation budget is reached.
func CoverageDirectedGenerator() TestGenerator { return tcgen.CoverageDirected() }

// FalsificationGenerator returns the generator that hill-climbs over
// stimulus instants (phase shifts, burst tightening, period-boundary
// alignment) to maximise the observed response time toward the deadline.
func FalsificationGenerator() TestGenerator { return tcgen.Falsification() }

// ShrinkingGenerator returns the generator that delta-debugs the given
// violating schedule down to a minimal subset that still violates.
func ShrinkingGenerator(input GenSchedule) TestGenerator { return tcgen.Shrinker(input) }

// RenderGenSummary renders generation results as a human-readable table.
func RenderGenSummary(runs []GenRun) string { return report.GenSummary(runs) }

// RenderGenReuse renders the evaluation reuse of generation results: the
// candidate evaluations their searches answered from a memo.
func RenderGenReuse(runs []GenRun) string { return report.GenReuse(runs) }

// RenderGenCSV renders generation results as byte-stable CSV, suitable
// for golden pinning.
func RenderGenCSV(runs []GenRun) string { return report.GenCSV(runs) }
