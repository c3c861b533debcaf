package platform

import (
	"time"

	"rmtest/internal/codegen"
)

// StepEveryTick makes sys step every E_CLK tick, the execution its
// skipped idle ticks must reproduce. Call it before the system runs.
func StepEveryTick(sys *System) { sys.stepEveryTick = true }

// CostedEntryConfig is a chart whose initial state has a costed entry
// action.
var CostedEntryConfig = costedEntryConfig

// RecordSkips rebuilds sys's executor over an ExecEnv that passes every
// charge on to the task and reports, for each batch of ticks
// Exec.SkipIdle advances, the ticks and the one charge issued for them.
// Call it before the system runs.
func RecordSkips(sys *System, skipped func(ticks uint64, charge time.Duration)) {
	var lst codegen.Listener
	if sys.level == MLevel {
		lst = listener{sys: sys}
	}
	spy := &skipSpy{taskEnv: sys.taskEnv, skipped: skipped}
	sys.Exec = codegen.NewExec(sys.prog, sys.cfg.Cost, spy, lst)
	spy.exec = sys.Exec
}

// skipSpy reports a charge as a skip's when the executor's elided-tick
// count moved since the previous charge: SkipIdle counts the ticks it
// advances before it charges them.
type skipSpy struct {
	*taskEnv
	exec    *codegen.Exec
	elided  uint64
	skipped func(uint64, time.Duration)
}

func (s *skipSpy) Compute(d time.Duration) {
	if n := s.exec.Elided(); n != s.elided {
		s.skipped(n-s.elided, d)
		s.elided = n
	}
	s.taskEnv.Compute(d)
}
