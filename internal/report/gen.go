package report

import (
	"fmt"
	"strings"

	"rmtest/internal/tcgen"
)

// GenRun is one chart's test-case generation outcome for rendering: the
// per-strategy results of the generation pipeline in execution order.
type GenRun struct {
	Chart   string
	Results []tcgen.Result
}

// genCoverageCells renders the coverage columns of one result row;
// strategies that do not measure adequacy get placeholders.
func genCoverageCells(r tcgen.Result) (trans, phase, boundary string) {
	if r.Coverage == nil {
		return "-", "-", "-"
	}
	c := r.Coverage
	trans = fmt.Sprintf("%d/%d", c.Transitions.Covered, c.Transitions.Total)
	phase = fmt.Sprintf("%.0f%%", 100*c.Phase.Ratio())
	boundary = fmt.Sprintf("%d", c.Boundary.NearBound)
	return trans, phase, boundary
}

// genShrunkCell renders the shrunk-counterexample column.
func genShrunkCell(r tcgen.Result) string {
	if r.Shrunk == nil {
		return "-"
	}
	return fmt.Sprintf("%d", len(r.Shrunk.Stimuli))
}

// GenCSV renders generated suites for machine consumption (and golden
// pinning): a schedule section with one row per stimulus — primary
// stimuli carry their sample's delay and verdict — followed by a
// summary section with one row per strategy. Every value is identical
// across worker counts, so the output is byte-stable for a fixed seed.
func GenCSV(runs []GenRun) string {
	var b strings.Builder
	b.WriteString("# schedule\n")
	b.WriteString("chart,strategy,kind,index,at_ms,signal,delay_ms,verdict\n")
	for _, run := range runs {
		for _, r := range run.Results {
			sample := 0
			for i, st := range r.Schedule.Stimuli {
				if st.Aux {
					fmt.Fprintf(&b, "%s,%s,aux,%d,%s,%s,-,-\n",
						run.Chart, r.Strategy, i, msStr(st.At), st.Signal)
					continue
				}
				delay, verdict := "-", "-"
				if sample < len(r.Samples) {
					s := r.Samples[sample]
					verdict = s.Verdict.String()
					if s.CObserved {
						delay = msStr(s.Delay)
					}
				}
				fmt.Fprintf(&b, "%s,%s,sample,%d,%s,%s,%s,%s\n",
					run.Chart, r.Strategy, i, msStr(st.At), st.Signal, delay, verdict)
				sample++
			}
		}
	}
	b.WriteString("# summary\n")
	b.WriteString("chart,strategy,evals,rounds,samples,worst_ms,worst_index,violated,transitions,phase,boundary_near,unreachable,shrunk\n")
	for _, run := range runs {
		for _, r := range run.Results {
			trans, phase, boundary := genCoverageCells(r)
			unreachable := "-"
			if len(r.Unreachable) > 0 {
				unreachable = strings.Join(r.Unreachable, ";")
			}
			fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%s,%d,%v,%s,%s,%s,%s,%s\n",
				run.Chart, r.Strategy, r.Evals, r.Rounds, len(r.Samples),
				msStr(r.WorstDelay), r.WorstIndex, r.Violated,
				trans, phase, boundary, unreachable, genShrunkCell(r))
		}
	}
	return b.String()
}

// GenSummary renders generated suites for humans: one row per strategy
// with search effort, the worst observed response against the bound,
// the adequacy reached, and the size of the shrunk counterexample.
func GenSummary(runs []GenRun) string {
	if len(runs) == 0 {
		return "(no generation runs)\n"
	}
	var b strings.Builder
	b.WriteString("Generated test suites: search effort, worst response and adequacy per strategy\n\n")
	fmt.Fprintf(&b, "%-10s %-10s %5s %6s %7s %9s %6s %8s %7s %6s %9s %7s\n",
		"chart", "strategy", "evals", "rounds", "samples",
		"worst_ms", "at", "violated", "trans", "phase", "near_bnd", "shrunk")
	b.WriteString(strings.Repeat("-", 102))
	b.WriteByte('\n')
	for _, run := range runs {
		for _, r := range run.Results {
			trans, phase, boundary := genCoverageCells(r)
			violated := "no"
			if r.Violated {
				violated = "YES"
			}
			fmt.Fprintf(&b, "%-10s %-10s %5d %6d %7d %9s %6d %8s %7s %6s %9s %7s\n",
				run.Chart, r.Strategy, r.Evals, r.Rounds, len(r.Samples),
				msStr(r.WorstDelay), r.WorstIndex, violated,
				trans, phase, boundary, genShrunkCell(r))
		}
	}
	for _, run := range runs {
		for _, r := range run.Results {
			if len(r.Unreachable) > 0 {
				fmt.Fprintf(&b, "\n%s/%s unreachable transitions: %s\n",
					run.Chart, r.Strategy, strings.Join(r.Unreachable, ", "))
			}
			if r.Shrunk != nil {
				fmt.Fprintf(&b, "\n%s/%s shrunk counterexample (%d stimuli):\n",
					run.Chart, r.Strategy, len(r.Shrunk.Stimuli))
				for _, st := range r.Shrunk.Stimuli {
					role := "sample"
					if st.Aux {
						role = "aux"
					}
					fmt.Fprintf(&b, "  %8s ms  %-22s %s\n", msStr(st.At), st.Signal, role)
				}
			}
		}
	}
	return b.String()
}

// GenReuse renders how much candidate evaluation the generation searches
// saved through their memos: every candidate evaluation is a lookup, a
// hit repeats a candidate of an earlier batch of the same search, a
// dedup repeats one of its own batch, and only the misses were
// simulated.
func GenReuse(runs []GenRun) string {
	var lookups, hits, deduped int
	for _, run := range runs {
		for _, r := range run.Results {
			lookups += r.Evals
			hits += r.Hits
			deduped += r.Deduped
		}
	}
	reuse := 0.0
	if lookups > 0 {
		reuse = float64(hits+deduped) / float64(lookups)
	}
	var b strings.Builder
	b.WriteString("EVALUATION CACHE. Content-addressed memoisation of candidate evaluations\n\n")
	fmt.Fprintf(&b, "%-12s %10s\n", "counter", "value")
	b.WriteString(strings.Repeat("-", 23))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-12s %10d\n", "lookups", lookups)
	fmt.Fprintf(&b, "%-12s %10d\n", "hits", hits)
	fmt.Fprintf(&b, "%-12s %10d\n", "deduped", deduped)
	fmt.Fprintf(&b, "%-12s %10d\n", "misses", lookups-hits-deduped)
	fmt.Fprintf(&b, "\n%.1f%% of lookups reused a prior evaluation\n", 100*reuse)
	return b.String()
}
