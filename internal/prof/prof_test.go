package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfilesOnce(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // a clean exit and a signal path may both stop
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}
}

func TestStartWithoutFilesIsANoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestStartReportsUnwritablePath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("want an error for a path in a missing directory")
	}
}
