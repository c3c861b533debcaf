// Command chartgen demonstrates the code-generation stage: it compiles
// the GPCA pump chart (or the extended chart) and emits the generated
// artifacts — the transition-table/bytecode disassembly, readable Go
// source that compiles as a package on its own, or a Graphviz rendering
// — mirroring what RealTimeWorkshop hands to the platform integrator.
//
// Usage:
//
//	chartgen [-chart pump|ext] [-go | -dot]
package main

import (
	"flag"
	"fmt"
	"os"

	"rmtest"
)

func main() {
	which := flag.String("chart", "pump", "chart to generate: pump or ext")
	emitGo := flag.Bool("go", false, "emit generated Go source instead of the disassembly")
	dot := flag.Bool("dot", false, "emit a Graphviz rendering of the chart")
	flag.Parse()

	var chart *rmtest.Chart
	switch *which {
	case "pump":
		chart = rmtest.PumpChart()
	case "ext":
		chart = rmtest.PumpExtendedChart()
	default:
		fmt.Fprintln(os.Stderr, "chartgen: -chart must be pump or ext")
		os.Exit(1)
	}
	if *dot {
		cc, err := chart.Compile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "chartgen:", err)
			os.Exit(1)
		}
		fmt.Print(cc.DOT())
		return
	}
	if *emitGo {
		if err := rmtest.EmitGo(os.Stdout, chart, "pumpgen"); err != nil {
			fmt.Fprintln(os.Stderr, "chartgen:", err)
			os.Exit(1)
		}
		return
	}
	prog, err := rmtest.Generate(chart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chartgen:", err)
		os.Exit(1)
	}
	fmt.Print(prog.Disassemble())
}
