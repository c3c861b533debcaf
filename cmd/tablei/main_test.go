package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command instead of the tests,
// so a test can run the command in a child process.
const runMainEnv = "TABLEI_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name               string
		n, workers, budget int
		target             float64
		want               string // "" when the values are accepted
	}{
		{"defaults", 10, 0, 0, 0, ""},
		{"bounds", 1, 1, 1, 1, ""},
		{"n=0", 0, 0, 0, 0, "-n must be at least 1"},
		{"n=-1", -1, 0, 0, 0, "-n must be at least 1"},
		{"workers=-1", 10, -1, 0, 0, "-workers must not be negative"},
		{"gen-budget=-1", 10, 0, -1, 0, "-gen-budget must not be negative"},
		{"gen-target=1.5", 10, 0, 0, 1.5, "-gen-target must be in [0, 1]"},
		{"gen-target=-0.1", 10, 0, 0, -0.1, "-gen-target must be in [0, 1]"},
		{"gen-target=NaN", 10, 0, 0, math.NaN(), "-gen-target must be in [0, 1]"},
	} {
		err := checkFlags(tc.n, tc.workers, tc.budget, tc.target)
		if tc.want == "" && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMalformedNumbersExitBeforeAnyWork runs the command on each
// malformed value: it must print nothing on stdout and exit with status
// 2 and the usage.
func TestMalformedNumbersExitBeforeAnyWork(t *testing.T) {
	for _, args := range [][]string{
		{"-csv", "-n", "0"}, {"-csv", "-n", "-1"}, {"-faults", "-csv", "-n", "0"},
		{"-workers", "-1"}, {"-gen", "-gen-budget", "-1"}, {"-gen", "-gen-target", "1.5"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("%v: no usage on stderr: %q", args, stderr.String())
		}
	}
}
