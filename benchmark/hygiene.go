package main

// Run hygiene: the machine the numbers come from, and proof that a
// workload left nothing behind.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// checkCores refuses a workload that needs more runnable threads than the
// host has cores: its wall times would measure the scheduler.
func checkCores(threads int, o options) error {
	if n := goruntime.NumCPU(); threads > n && !o.oversubscribe {
		return fmt.Errorf("workload needs ranks x workers = %d but the host has %d cores; pass -oversubscribe to measure anyway", threads, n)
	}
	return nil
}

// gitCommit names the commit being measured, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// leakGuard remembers the goroutine count before a workload and checks,
// after it closed everything, that the count came back and that no
// netcomm socket or ring file survived in the socket directory.
type leakGuard struct {
	goroutines int
	sockDir    string
}

func newLeakGuard(sockDir string) leakGuard {
	return leakGuard{goroutines: goruntime.NumGoroutine(), sockDir: sockDir}
}

func (g leakGuard) check() error {
	// Closed connections' reader goroutines exit asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > g.goroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:goruntime.Stack(buf, true)]
			return fmt.Errorf("hygiene: %d goroutines before the workload, %d after it closed everything:\n%s",
				g.goroutines, goruntime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	left, err := filepath.Glob(filepath.Join(g.sockDir, "jsnc-*"))
	if err != nil {
		return err
	}
	if len(left) > 0 {
		return fmt.Errorf("hygiene: socket/ring files left behind: %v", left)
	}
	return nil
}

// makeSockDir creates the directory the uds/shm tiers put their socket and
// ring files in: inside the working directory (the benchmark writes
// nowhere else) and relative, so the paths stay short enough for a Unix
// socket address however deep the checkout sits.
func makeSockDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "sock-")
}
