package scenario

import (
	"fmt"
	"sort"
	"sync"

	"github.com/bdbench/bdbench/internal/suites"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Registry resolves the names a scenario spec refers to: workloads and
// suites, registered by name. The default registry is seeded with bdbench's
// built-in inventory (the suite emulations and every workload their rows
// name); external callers add custom workloads or whole suites to it — or
// build an isolated registry with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	ws     map[string]workloads.Workload
	ss     map[string]suites.Suite
	sOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ws: make(map[string]workloads.Workload),
		ss: make(map[string]suites.Suite),
	}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared registry seeded from suites.All — the suites'
// rows are the built-in workload inventory. It is built once, on first use;
// registrations made through it are visible to every later Default caller.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		if err := defaultReg.seed(suites.All()); err != nil {
			panic(err)
		}
	})
	return defaultReg
}

// seed registers the suites and every workload their rows name. Suites
// share workloads, so meeting the same (==) workload again is expected; two
// different ones under one name are an error — a spec entry naming it would
// silently mean whichever suite came first.
func (r *Registry) seed(ss []suites.Suite) error {
	for _, s := range ss {
		if err := r.RegisterSuite(s); err != nil {
			return err
		}
		for _, w := range s.Workloads() {
			if prev, ok := r.Workload(w.Name()); !ok {
				if err := r.RegisterWorkload(w); err != nil {
					return err
				}
			} else if prev != w {
				return fmt.Errorf("scenario: suite %q binds a different workload to the name %q", s.Name, w.Name())
			}
		}
	}
	return nil
}

// RegisterWorkload adds a workload under its Name; duplicate and empty
// names are errors.
func (r *Registry) RegisterWorkload(w workloads.Workload) error {
	name := w.Name()
	if name == "" {
		return fmt.Errorf("scenario: cannot register a workload with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ws[name]; dup {
		return fmt.Errorf("scenario: workload %q already registered", name)
	}
	r.ws[name] = w
	return nil
}

// RegisterSuite adds a suite under its Name; duplicate and empty names are
// errors. Suite iteration order is registration order.
func (r *Registry) RegisterSuite(s suites.Suite) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: cannot register a suite with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ss[s.Name]; dup {
		return fmt.Errorf("scenario: suite %q already registered", s.Name)
	}
	r.ss[s.Name] = s
	r.sOrder = append(r.sOrder, s.Name)
	return nil
}

// Workload looks a workload up by name.
func (r *Registry) Workload(name string) (workloads.Workload, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.ws[name]
	return w, ok
}

// Suite looks a suite up by name.
func (r *Registry) Suite(name string) (suites.Suite, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.ss[name]
	return s, ok
}

// Workloads returns every registered workload sorted by name — a
// deterministic iteration order independent of registration order.
func (r *Registry) Workloads() []workloads.Workload {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.ws))
	for n := range r.ws {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		out[i] = r.ws[n]
	}
	return out
}

// Suites returns every registered suite in registration order.
func (r *Registry) Suites() []suites.Suite {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]suites.Suite, len(r.sOrder))
	for i, n := range r.sOrder {
		out[i] = r.ss[n]
	}
	return out
}

// SuiteNames returns the registered suite names in registration order.
func (r *Registry) SuiteNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.sOrder...)
}
