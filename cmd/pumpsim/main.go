// Command pumpsim runs the GPCA infusion pump on a chosen implementation
// scheme, presses the bolus button, and dumps the four-variable trace and
// the Fig. 3 timing diagram of the first bolus chain.
//
// Usage:
//
//	pumpsim [-scheme 1|2|3] [-press ms] [-width ms] [-run ms] [-trace] [-sched]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rmtest"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
)

func main() {
	schemeNo := flag.Int("scheme", 1, "implementation scheme (1, 2 or 3)")
	press := flag.Int("press", 40, "bolus button press instant (ms)")
	width := flag.Int("width", 60, "press width (ms)")
	runFor := flag.Int("run", 6000, "simulation horizon (ms)")
	dumpTrace := flag.Bool("trace", false, "dump the full four-variable trace")
	dumpSched := flag.Bool("sched", false, "dump the scheduler trace")
	gantt := flag.Bool("gantt", false, "render a CPU Gantt chart around the press")
	vcd := flag.String("vcd", "", "write the four-variable trace as a VCD waveform to this file")
	flag.Parse()

	var scheme rmtest.Scheme
	switch *schemeNo {
	case 1:
		scheme = rmtest.Scheme1()
	case 2:
		scheme = rmtest.Scheme2()
	case 3:
		scheme = rmtest.Scheme3()
	default:
		fmt.Fprintln(os.Stderr, "pumpsim: scheme must be 1, 2 or 3")
		os.Exit(1)
	}
	sys, err := rmtest.NewSystem(rmtest.PumpConfig(), scheme, rmtest.MLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pumpsim:", err)
		os.Exit(1)
	}
	sched := sys.Sched.Record()

	at := time.Duration(*press) * time.Millisecond
	sys.Env.PulseAt(at, gpca.SigBolusButton, 1, 0, time.Duration(*width)*time.Millisecond)
	sys.Run(time.Duration(*runFor) * time.Millisecond)

	fmt.Printf("pump on %s: ran %v, motor=%d, CPU utilisation %.1f%%, %d context switches, %d preemptions\n",
		sys.SchemeName(), sys.Kernel.Now(), sys.Env.Get(gpca.SigPumpMotor),
		100*sys.Sched.Utilization(), sys.Sched.ContextSwitches(), sys.Sched.Preemptions())

	spec := fourvar.MatchSpec{
		MName: gpca.SigBolusButton, MPred: func(v int64) bool { return v == 1 },
		IName: "i_BolusReq",
		OName: "o_MotorState", OPred: func(v int64) bool { return v >= 1 },
		CName: gpca.SigPumpMotor,
	}
	if seg, ok := fourvar.Match(sys.Trace, sys.TransTrace, spec, 0); ok {
		fmt.Println()
		fmt.Print(rmtest.RenderDiagram(seg, 72))
	} else {
		fmt.Println("bolus chain not completed (MAX): the press was lost or the response starved")
	}
	if *gantt {
		from := at - 10*time.Millisecond
		if from < 0 {
			from = 0
		}
		fmt.Println()
		fmt.Print(rmtest.RenderGantt(sched, from, at+150*time.Millisecond, 90))
	}
	fmt.Println()
	fmt.Print(rmtest.RenderTaskLoads(sys.Sched))
	if *vcd != "" {
		f, err := os.Create(*vcd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pumpsim:", err)
			os.Exit(1)
		}
		if err := rmtest.WriteVCD(f, sys.Trace, "pumpsim "+sys.SchemeName()); err != nil {
			fmt.Fprintln(os.Stderr, "pumpsim:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote waveform to %s\n", *vcd)
	}
	if *dumpTrace {
		fmt.Println("\nfour-variable trace:")
		fmt.Print(sys.Trace.String())
	}
	if *dumpSched {
		fmt.Println("\nscheduler trace:")
		fmt.Print(sched.String())
	}
}
