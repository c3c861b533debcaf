package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// launchFlag, as the first argument, makes rmbench a launcher: it runs
// the rest of its arguments as one command and reports on it.
const launchFlag = "-launch"

// usage is what a launcher reports about the command it ran.
type usage struct {
	WallNS   int64 `json:"wall_ns"`
	CPUNS    int64 `json:"cpu_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
}

// launch runs one command with the launcher's stdio, writes its wall time
// and rusage as JSON to file descriptor 3, and exits with its exit code.
//
// The benchmark starts every CLI through a launcher of its own because
// Linux folds the peak RSS of the process that forks a child into the
// child's ru_maxrss: a CLI forked straight from rmbench would report
// rmbench's own peak whenever that is the larger. A launcher stays far
// smaller than any CLI.
func launch(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "rmbench: -launch needs a command")
		os.Exit(2)
	}
	syscall.CloseOnExec(3)
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	t := time.Now()
	err := cmd.Run()
	u := usage{WallNS: int64(time.Since(t))}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.CPUNS = ru.Utime.Nano() + ru.Stime.Nano()
			u.MaxRSSKB = ru.Maxrss
		}
	}
	if err := json.NewEncoder(os.NewFile(3, "usage")).Encode(u); err != nil {
		fmt.Fprintln(os.Stderr, "rmbench: launcher:", err)
		os.Exit(125)
	}
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		os.Exit(exit.ExitCode())
	case err != nil:
		fmt.Fprintln(os.Stderr, "rmbench: launcher:", err)
		os.Exit(126)
	}
}
