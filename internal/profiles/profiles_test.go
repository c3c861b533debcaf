package profiles

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: a writable prefix yields a non-empty CPU
// and heap profile, and stop reports no error.
func TestStartWritesBothProfiles(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	stop, err := Start(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, name := range []string{prefix + ".cpu.pprof", prefix + ".heap.pprof"} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestStartMissingDirectory: a prefix in a directory that does not exist
// is an error, not a silent no-op.
func TestStartMissingDirectory(t *testing.T) {
	stop, err := Start(filepath.Join(t.TempDir(), "missing", "run"))
	if err == nil {
		stop()
		t.Fatal("profiling into a missing directory succeeded")
	}
}

// TestStartEmptyPrefix: no prefix profiles nothing and stops cleanly.
func TestStartEmptyPrefix(t *testing.T) {
	stop, err := Start("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
