package rmtest_test

// Golden test for the generated-code emitter: the emitted GPCA source is
// pinned byte-for-byte in testdata, and it and the extended chart's must
// each compile as a standalone Go package, mirroring how RealTimeWorkshop
// output is handed to a compiler.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rmtest"
)

const emitGolden = "testdata/gpca_gen.go.golden"

func emit(t *testing.T, chart *rmtest.Chart, pkg string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rmtest.EmitGo(&buf, chart, pkg); err != nil {
		t.Fatalf("EmitGo %s: %v", chart.Name, err)
	}
	return buf.Bytes()
}

func TestEmitGoGolden(t *testing.T) {
	got := emit(t, rmtest.PumpChart(), "gpcagen")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(emitGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emitGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(emitGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("emitted source differs from %s; run with UPDATE_GOLDEN=1 after reviewing", emitGolden)
	}
}

func TestEmitGoCompiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	mod := "module gen\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		t.Fatal(err)
	}
	// One package per chart: the pump's calls no helper, the extended
	// chart's guards call b2i, whose definition must come with it.
	for pkg, src := range map[string][]byte{
		"gpcagen": emit(t, rmtest.PumpChart(), "gpcagen"),
		"extgen":  emit(t, rmtest.PumpExtendedChart(), "extgen"),
	} {
		if err := os.Mkdir(filepath.Join(dir, pkg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, pkg, pkg+".go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("emitted source does not compile: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "./...")
	vet.Dir = dir
	vet.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("emitted source fails go vet: %v\n%s", err, out)
	}
}
