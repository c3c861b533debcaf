// Infusion runs the paper's full GPCA case study as a physical scenario:
// a patient requests boluses while the reservoir drains with the pump
// motor; when the reservoir empties mid-infusion the empty-alarm chain
// fires and a caregiver clears it. All three GPCA timing requirements are
// checked along the way and the four-variable trace of the alarm chain is
// printed.
package main

import (
	"fmt"
	"log"
	"time"

	"rmtest"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
)

func main() {
	sys, err := rmtest.NewSystem(rmtest.PumpConfig(), rmtest.Scheme2(), rmtest.MLevel)
	if err != nil {
		log.Fatal(err)
	}

	// Physical reservoir: 5000 volume units, drained by the motor at
	// 1 unit/ms per speed level, checked every 10 ms. The empty detector
	// trips when the volume reaches zero.
	sys.Env.Define("sig_reservoir_volume", 5000)
	sys.Env.NewIntegrator(gpca.SigPumpMotor, "sig_reservoir_volume", 1, 0, 10*time.Millisecond)
	sys.Env.Watch("sig_reservoir_volume", func(_ string, _, now int64, _ time.Duration) {
		if now <= 0 {
			sys.Env.Set(gpca.SigReservoirEmpty, 1)
		}
	})

	// The patient requests two boluses; each infusion runs 4 s at speed 1,
	// so the second bolus empties the reservoir mid-infusion. A caregiver
	// clears the alarm two seconds later.
	sys.Env.PulseAt(100*time.Millisecond, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
	sys.Env.PulseAt(5*time.Second, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
	sys.Env.PulseAt(12*time.Second, gpca.SigClearButton, 1, 0, gpca.ButtonPress)
	sys.Run(14 * time.Second)

	fmt.Printf("scenario finished at %v: motor=%d buzzer=%d volume=%d\n",
		sys.Kernel.Now(), sys.Env.Get(gpca.SigPumpMotor),
		sys.Env.Get(gpca.SigBuzzer), sys.Env.Get("sig_reservoir_volume"))

	// REQ1 on both bolus requests.
	req1 := rmtest.PumpREQ1()
	fmt.Printf("\n%s\n", req1)
	for _, at := range []time.Duration{100 * time.Millisecond, 5 * time.Second} {
		m, _ := sys.Trace.FirstAt(fourvar.Monitored, gpca.SigBolusButton, at, func(v int64) bool { return v == 1 })
		c, ok := sys.Trace.FirstAt(fourvar.Controlled, gpca.SigPumpMotor, m.At, func(v int64) bool { return v >= 1 })
		if !ok {
			fmt.Printf("  bolus@%v: MAX\n", at)
			continue
		}
		verdict := "pass"
		if c.At-m.At > req1.Bound {
			verdict = "FAIL"
		}
		fmt.Printf("  bolus@%v: delay %v -> %s\n", at, c.At-m.At, verdict)
	}

	// REQ2: the buzzer must sound within 250 ms of the empty condition.
	empty, ok := sys.Trace.FirstAt(fourvar.Monitored, gpca.SigReservoirEmpty, 0, func(v int64) bool { return v == 1 })
	if !ok {
		log.Fatal("reservoir never emptied — scenario broken")
	}
	buzz, ok := sys.Trace.FirstAt(fourvar.Controlled, gpca.SigBuzzer, empty.At, func(v int64) bool { return v == 1 })
	req2 := rmtest.PumpREQ2()
	fmt.Printf("\n%s\n", req2)
	if !ok {
		fmt.Println("  empty alarm: MAX")
	} else {
		fmt.Printf("  empty@%v buzzer@%v delay %v -> %v\n", empty.At, buzz.At, buzz.At-empty.At, buzz.At-empty.At <= req2.Bound)
	}

	// REQ3: the buzzer must silence within 200 ms of the clear button.
	clear, _ := sys.Trace.FirstAt(fourvar.Monitored, gpca.SigClearButton, 0, func(v int64) bool { return v == 1 })
	off, ok := sys.Trace.FirstAt(fourvar.Controlled, gpca.SigBuzzer, clear.At, func(v int64) bool { return v == 0 })
	req3 := rmtest.PumpREQ3()
	fmt.Printf("\n%s\n", req3)
	if !ok {
		fmt.Println("  alarm clear: MAX")
	} else {
		fmt.Printf("  clear@%v off@%v delay %v -> %v\n", clear.At, off.At, off.At-clear.At, off.At-clear.At <= req3.Bound)
	}

	// The M-level decomposition of the alarm chain (empty -> buzzer).
	spec := fourvar.MatchSpec{
		MName: gpca.SigReservoirEmpty, MPred: func(v int64) bool { return v == 1 },
		IName: "i_EmptyAlarm",
		OName: "o_BuzzerState", OPred: func(v int64) bool { return v == 1 },
		CName: gpca.SigBuzzer,
	}
	if seg, ok := fourvar.Match(sys.Trace, sys.TransTrace, spec, 0); ok {
		fmt.Println("\nalarm chain decomposition:")
		fmt.Print(rmtest.RenderDiagram(seg, 72))
	}
}
