package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment records where a result set was measured, so that two sets
// are compared knowing whether the machines were alike.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	// Noisy is set when the 1-minute load average at the start exceeded
	// half the CPUs: something else was running, and timings may show it.
	Noisy bool `json:"noisy"`
}

// captureEnv reads the environment. withCommit also asks git for HEAD,
// which starts a process; single-workload runs skip it.
func captureEnv(withCommit bool) environment {
	e := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
		Load1:      -1,
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				e.Load1 = v
			}
		}
	}
	if withCommit {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	e.Noisy = e.Load1 > float64(e.NumCPU)/2
	return e
}

// requireCPUs refuses to measure on one CPU: every workload is sized for
// two, and on one the harness and the body it times would share a core.
func requireCPUs(e environment) error {
	if e.NumCPU < 2 || e.GOMAXPROCS < 2 {
		return fmt.Errorf("benchmark needs at least 2 CPUs, have nproc=%d GOMAXPROCS=%d", e.NumCPU, e.GOMAXPROCS)
	}
	return nil
}

func (e environment) String() string {
	s := fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s commit=%s load1=%.2f",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.OS, e.Arch, e.Kernel, e.Commit, e.Load1)
	if e.Noisy {
		s += " NOISY"
	}
	return s
}
