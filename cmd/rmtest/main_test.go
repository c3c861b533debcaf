package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command instead of the tests,
// so a test can run the command in a child process.
const runMainEnv = "RMTEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlagChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string // "" when the values are accepted
	}{
		{"n=1", checkSamples(1), ""},
		{"n=0", checkSamples(0), "-n must be at least 1"},
		{"n=-1", checkSamples(-1), "-n must be at least 1"},
		{"gen defaults", checkGen(0, 0, 0), ""},
		{"gen target 1", checkGen(5, 2, 1), ""},
		{"budget=-1", checkGen(-1, 0, 0), "-budget must not be negative"},
		{"workers=-1", checkGen(0, -1, 0), "-workers must not be negative"},
		{"target=1.5", checkGen(0, 0, 1.5), "-target must be in [0, 1]"},
		{"target=-0.1", checkGen(0, 0, -0.1), "-target must be in [0, 1]"},
		{"target=NaN", checkGen(0, 0, math.NaN()), "-target must be in [0, 1]"},
	} {
		if tc.want == "" && tc.err != nil {
			t.Errorf("%s: rejected: %v", tc.name, tc.err)
		}
		if tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, tc.err, tc.want)
		}
	}
}

// TestMalformedNumbersExitBeforeAnyWork runs the command on each
// malformed value: it must print nothing on stdout, where the model
// check's result would come first, and exit with status 2 and the usage.
func TestMalformedNumbersExitBeforeAnyWork(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"}, {"-n", "-1"}, {"-faults", "-n", "0"},
		{"gen", "-budget", "-1"}, {"gen", "-workers", "-1"},
		{"gen", "-target", "1.5"}, {"gen", "-target", "NaN"},
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

// TestPumpOnlyLintFlagsNeedGPCA runs lint with -rta or -platform on a
// chart other than the pump's: the pipeline model is the pump's, so the
// command must exit 1 with the error and print nothing on stdout.
func TestPumpOnlyLintFlagsNeedGPCA(t *testing.T) {
	for _, args := range [][]string{
		{"lint", "-chart", "railcrossing", "-rta"},
		{"lint", "-chart", "gpca-extended", "-rta"},
		{"lint", "-chart", "railcrossing", "-platform", "scheme2"},
		{"lint", "-chart", "gpca-extended", "-platform", "scheme3", "-rta", "-json"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: %v, want exit status 1", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
		if want := "-platform and -rta require -chart gpca"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q, want it to contain %q", args, stderr.String(), want)
		}
	}
}

// TestCommandGolden runs the command in a child process and compares its
// stdout with a golden in testdata/: the layered flow that rmbench's flow
// workload runs, the analytic prediction of schemes 2 and 3, and lint's
// scheme-2 response-time analysis of the pump.
// UPDATE_GOLDEN=1 re-records the goldens; do that only for a change meant
// to alter the output.
func TestCommandGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"req1_scheme3_n10_seed42.txt", []string{"-req", "REQ1", "-scheme", "3", "-n", "10", "-seed", "42"}},
		{"req1_scheme2_n1_rta.txt", []string{"-req", "REQ1", "-scheme", "2", "-n", "1", "-rta"}},
		{"req1_scheme3_n1_rta.txt", []string{"-req", "REQ1", "-scheme", "3", "-n", "1", "-rta"}},
		{"lint_gpca_rta.txt", []string{"lint", "-chart", "gpca", "-rta"}},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		path := filepath.Join("testdata", tc.golden)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: stdout differs from %s:\n%s", tc.args, path, got)
		}
	}
}
