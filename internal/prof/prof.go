// Package prof gives the command-line tools their -cpuprofile and
// -memprofile flags: one Start, one stop that every way out of main calls.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins a CPU profile into cpuFile and returns the function that
// ends it and then writes an allocation profile into memFile. Either name
// may be empty (that profile is skipped). stop is idempotent and safe to
// call from several goroutines — a clean exit and a signal handler may
// both reach it; a profile it cannot write is reported on standard error,
// since by then the caller is on its way out with its own exit status.
func Start(cpuFile, memFile string) (stop func(), err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "cpuprofile:", err)
				}
			}
			if memFile != "" {
				if err := writeAllocs(memFile); err != nil {
					fmt.Fprintln(os.Stderr, "memprofile:", err)
				}
			}
		})
	}, nil
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
