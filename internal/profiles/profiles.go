// Package profiles writes the CPU and heap profiles behind the -pprof
// flag of the tablei and rmtest commands.
package profiles

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into PREFIX.cpu.pprof and returns a stop
// function that finishes the CPU profile and writes PREFIX.heap.pprof
// after a GC, so the heap profile reflects live memory. An empty prefix
// profiles nothing, and its stop does nothing. stop returns the first
// error from closing the CPU profile or creating, writing or closing the
// heap profile.
func Start(prefix string) (stop func() error, err error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return err
		}
		return heap.Close()
	}, nil
}
