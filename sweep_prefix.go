package rmtest

// Prefix-shared fault-sweep evaluation. Every catalogue plan runs the
// same stimuli on the same scheme, so the step sequences differ only in
// the fault step: the stimuli form a shared trunk and each plan's fault
// windows are armed on a branch resumed from a snapshot taken at the
// latest quiescent instant before the earliest window opens. Plans with
// whole-horizon windows (Start 0) diverge immediately and share only
// system construction — the attainable reuse is structurally bounded by
// the catalogue's window starts, not by the engine. Results are
// byte-identical to the plain sweep: the fallback path below IS the
// plain sweep's per-plan unit.

import (
	"fmt"

	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// sweepWorker owns one chunk's live M-instrumented system during a
// prefix-shared fault sweep.
type sweepWorker struct {
	pb     *platform.Prebuilt
	req    core.Requirement
	tc     core.TestCase
	plans  []faults.Plan
	sc     *platform.Scratch
	runner *core.Runner
	sys    *platform.System
}

func newSweepWorker(pb *platform.Prebuilt, req core.Requirement, tc core.TestCase, plans []faults.Plan) (*sweepWorker, error) {
	w := &sweepWorker{pb: pb, req: req, tc: tc, plans: plans, sc: &platform.Scratch{}}
	runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, func() platform.Scheme { return platform.DefaultScheme2() }, w.sc), req)
	if err != nil {
		return nil, err
	}
	w.runner = runner
	return w, nil
}

// steps flattens one plan's run into the prefix step sequence: the test
// case's stimuli in order (the order applyStimuli arms them), then one
// step for the whole fault plan (the order the Prepare hook arms it).
// The fault step's At is the earliest window start — the trunk never
// advances past an unopened window — and its key carries the per-run
// seed: two plans share a fault step only if the seeded fault streams
// would be identical too.
func (w *sweepWorker) steps(run campaign.Run) []campaign.PrefixStep {
	plan := w.plans[run.Index]
	st := w.req.Stimulus
	out := make([]campaign.PrefixStep, 0, len(w.tc.Stimuli)+1)
	for _, at := range w.tc.Stimuli {
		out = append(out, campaign.PrefixStep{
			Key: fmt.Sprintf("s|%s|%d|%d|%d|%d", st.Signal, st.Value, st.Rest, int64(st.Width), int64(at)),
			At:  int64(at),
			Arm: func() { w.armStimulus(at) },
		})
	}
	if len(plan.Faults) > 0 {
		start := plan.Faults[0].Start
		for _, f := range plan.Faults[1:] {
			if f.Start < start {
				start = f.Start
			}
		}
		out = append(out, campaign.PrefixStep{
			Key: fmt.Sprintf("f|%d|%+v", run.Seed, plan),
			At:  int64(start),
			Arm: func() { faults.Prepare(plan, run.Seed)(w.sys, w.tc) },
		})
	}
	return out
}

// armStimulus schedules one stimulus exactly as Runner.applyStimuli
// does.
func (w *sweepWorker) armStimulus(at sim.Time) {
	st := w.req.Stimulus
	if st.Width > 0 {
		w.sys.Env.PulseAt(at, st.Signal, st.Value, st.Rest, st.Width)
	} else {
		w.sys.Env.SetAt(at, st.Signal, st.Value)
	}
}

// ops builds the campaign.PrefixOps vtable over this worker.
func (w *sweepWorker) ops() campaign.PrefixOps[core.MResult] {
	horizon := int64(w.tc.Horizon(w.req))
	return campaign.PrefixOps[core.MResult]{
		Steps:   w.steps,
		Horizon: func(campaign.Run) int64 { return horizon },
		Start: func(steps []campaign.PrefixStep) (int64, error) {
			sys, err := w.pb.NewSystem(platform.DefaultScheme2(), platform.MLevel, w.sc)
			if err != nil {
				return 0, err
			}
			w.sys = sys
			for _, st := range steps {
				st.Arm()
			}
			return 0, nil
		},
		AdvanceSnapshot: func(to int64) (any, int64, bool) {
			snap, ok := w.sys.AdvanceSnapshot(sim.Time(to))
			if !ok {
				return nil, 0, false
			}
			return snap, int64(snap.At()), true
		},
		Restore: func(snap any, steps []campaign.PrefixStep) {
			w.sys.Restore(snap.(*platform.SysSnap), func() {
				for _, st := range steps {
					st.Arm()
				}
			})
		},
		Finish: func(run campaign.Run) (core.MResult, error) {
			w.sys.Run(w.tc.Horizon(w.req))
			mr := w.runner.AnnotateM(w.sys, w.tc, w.runner.Evaluate(w.sys, w.tc))
			// The result retains the live transition trace; detach it so
			// later restores on this system truncate a clone instead of
			// mutating data the result holds.
			w.sys.DetachTransTrace()
			return mr, nil
		},
		Plain: func(run campaign.Run) (core.MResult, error) {
			return sweepPlain(w.pb, w.req, w.tc, w.plans[run.Index], run.Seed, w.sc)
		},
		Stop: func() {
			if w.sys != nil {
				w.sys.Shutdown()
				w.sys = nil
			}
		},
	}
}

// sweepPlain evaluates one plan from scratch — the plain sweep's unit
// and the reference the shared path must be byte-identical to.
func sweepPlain(pb *platform.Prebuilt, req core.Requirement, tc core.TestCase, plan faults.Plan, seed uint64, sc *platform.Scratch) (core.MResult, error) {
	runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, func() platform.Scheme { return platform.DefaultScheme2() }, sc), req)
	if err != nil {
		return core.MResult{}, err
	}
	runner.Prepare = faults.Prepare(plan, seed)
	return runner.RunM(tc)
}

// faultSweepPrefix is the PrefixShare variant of the sweep's campaign:
// same keys, cache semantics and run identities, but cache misses are
// walked as prefix tries on contiguous run-order chunks.
func faultSweepPrefix(opt FaultSweepOptions, cfg campaign.Config, keys []uint64,
	pb *platform.Prebuilt, req core.Requirement, tc core.TestCase, plans []faults.Plan) ([]core.MResult, error) {
	type workerOrErr struct {
		w   *sweepWorker
		err error
	}
	outs := campaign.MapBatchCached(cfg, opt.Cache, keys,
		func() workerOrErr {
			w, err := newSweepWorker(pb, req, tc, plans)
			return workerOrErr{w: w, err: err}
		},
		func(runs []campaign.Run, we workerOrErr) ([]campaign.Outcome[core.MResult], error) {
			if we.err != nil {
				return nil, we.err
			}
			res, stats := campaign.PrefixEval(runs, we.w.ops())
			if opt.PrefixStats != nil {
				opt.PrefixStats.Add(stats)
			}
			return res, nil
		})
	return campaign.Values(outs)
}
