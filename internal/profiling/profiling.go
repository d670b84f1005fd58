// Package profiling turns on Go's standard profilers around a benchmark
// run and writes the results as pprof/trace files. It exists so that every
// bdbench command that does real work — run, loadcurve, datagen — offers
// the same -profile switch for answering "where does the time (or the
// garbage) go?", with no dependencies beyond runtime/pprof and
// runtime/trace. The zero-allocation work in the metrics and loadgen hot
// paths was driven by exactly these profiles; keeping the hooks in the
// tool makes the next regression as easy to find as the last one.
package profiling

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
)

// Mode is one profiler to enable for a session.
type Mode string

// The supported profile modes. Each writes one file into the session
// directory; the CPU profile and execution trace run for the session's
// duration, the heap profiles are captured at Stop.
const (
	// ModeCPU samples on-CPU time for the whole session (cpu.pprof).
	ModeCPU Mode = "cpu"
	// ModeMem captures live-heap usage at Stop, after a forced GC, so the
	// profile shows retained memory rather than collectible garbage
	// (mem.pprof).
	ModeMem Mode = "mem"
	// ModeAllocs captures cumulative allocation counts since process start
	// at Stop — the profile that finds per-operation garbage on hot paths
	// (allocs.pprof).
	ModeAllocs Mode = "allocs"
	// ModeTrace records the execution trace — scheduling, GC, blocking —
	// for the whole session (trace.out).
	ModeTrace Mode = "trace"
)

// Modes returns the supported mode names, in presentation order.
func Modes() []string {
	return []string{string(ModeCPU), string(ModeMem), string(ModeAllocs), string(ModeTrace)}
}

// filename maps a mode to the file it writes inside the session directory.
func (m Mode) filename() string {
	switch m {
	case ModeCPU:
		return "cpu.pprof"
	case ModeMem:
		return "mem.pprof"
	case ModeAllocs:
		return "allocs.pprof"
	case ModeTrace:
		return "trace.out"
	}
	return string(m) + ".pprof"
}

// Parse resolves a comma-separated mode list ("cpu,mem"). The empty string
// parses to no modes, so callers can pass a flag value straight through.
// Duplicates collapse; unknown names error with the supported list.
func Parse(s string) ([]Mode, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	seen := map[Mode]bool{}
	var out []Mode
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		m := Mode(name)
		switch m {
		case ModeCPU, ModeMem, ModeAllocs, ModeTrace:
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		default:
			return nil, fmt.Errorf("profiling: unknown mode %q (have: %s)",
				name, strings.Join(Modes(), ", "))
		}
	}
	return out, nil
}

// Session is a set of running profilers. Stop must be called exactly once;
// a nil Session is a valid no-op, so callers can thread it through
// unconditionally.
type Session struct {
	dir     string
	files   []*os.File // files still open, closed at Stop
	stopCPU bool
	stopTr  bool
	heap    []Mode // heap-style profiles written at Stop
}

// Start enables the requested profilers, creating dir (and parents) as
// needed. With no modes it returns (nil, nil) — a no-op session. On error
// any partially started profiler is stopped and its file removed.
func Start(dir string, modes []Mode) (*Session, error) {
	if len(modes) == 0 {
		return nil, nil
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profiling: create %s: %w", dir, err)
	}
	s := &Session{dir: dir}
	fail := func(err error) (*Session, error) {
		s.abort()
		return nil, err
	}
	for _, m := range modes {
		switch m {
		case ModeCPU:
			f, err := create(dir, m)
			if err != nil {
				return fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				os.Remove(f.Name())
				return fail(fmt.Errorf("profiling: start cpu profile: %w", err))
			}
			s.files = append(s.files, f)
			s.stopCPU = true
		case ModeTrace:
			f, err := create(dir, m)
			if err != nil {
				return fail(err)
			}
			if err := trace.Start(f); err != nil {
				f.Close()
				os.Remove(f.Name())
				return fail(fmt.Errorf("profiling: start trace: %w", err))
			}
			s.files = append(s.files, f)
			s.stopTr = true
		case ModeMem, ModeAllocs:
			// Heap-style profiles are snapshots: nothing to start, the file
			// is written at Stop.
			s.heap = append(s.heap, m)
		default:
			return fail(fmt.Errorf("profiling: unknown mode %q", m))
		}
	}
	// Deterministic write order at Stop regardless of flag order.
	sort.Slice(s.heap, func(i, j int) bool { return s.heap[i] < s.heap[j] })
	return s, nil
}

// create opens the mode's output file inside dir.
func create(dir string, m Mode) (*os.File, error) {
	path := filepath.Join(dir, m.filename())
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: create %s: %w", path, err)
	}
	return f, nil
}

// abort tears down a partially started session.
func (s *Session) abort() {
	if s.stopCPU {
		pprof.StopCPUProfile()
	}
	if s.stopTr {
		trace.Stop()
	}
	for _, f := range s.files {
		f.Close()
		os.Remove(f.Name())
	}
	s.files = nil
}

// Stop ends the running profilers and writes the snapshot profiles. It is
// safe on a nil Session. The first error is returned; later profiles are
// still attempted, so one bad file does not lose the rest.
func (s *Session) Stop() error {
	if s == nil {
		return nil
	}
	if s.stopCPU {
		pprof.StopCPUProfile()
		s.stopCPU = false
	}
	if s.stopTr {
		trace.Stop()
		s.stopTr = false
	}
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("profiling: close %s: %w", f.Name(), err)
		}
	}
	s.files = nil
	for _, m := range s.heap {
		if err := s.writeHeap(m); err != nil && first == nil {
			first = err
		}
	}
	s.heap = nil
	return first
}

// writeHeap snapshots one heap-style profile. For ModeMem a GC runs first
// so the profile reflects retained memory, not yet-uncollected garbage —
// the same effect as pprof's runtime.GC-before-heap convention.
func (s *Session) writeHeap(m Mode) error {
	f, err := create(s.dir, m)
	if err != nil {
		return err
	}
	defer f.Close()
	name := "allocs"
	if m == ModeMem {
		runtime.GC()
		name = "heap"
	}
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("profiling: profile %q not found", name)
	}
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("profiling: write %s: %w", f.Name(), err)
	}
	return nil
}
