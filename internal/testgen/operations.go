// Package testgen implements the paper's test generator (§3.3): abstract
// data-processing operations classified by arity (element, single-set,
// double-set), workload patterns that combine them (single-operation,
// multi-operation, iterative-operation), and prescriptions — serializable
// recipes that, bound to a concrete software stack, become prescribed
// benchmark tests. The same abstract test therefore runs on different
// stacks (the paper's system view) while producing a system-independent
// outcome (the functional view).
package testgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Arity classifies operations by how many data sets they consume.
type Arity string

// The paper's three operation categories.
const (
	ElementOp   Arity = "element"    // per-record transformation
	SingleSetOp Arity = "single-set" // consumes one data set
	DoubleSetOp Arity = "double-set" // consumes two data sets
)

// Record is the abstract data unit operations process.
type Record struct {
	Key, Value string
}

// Dataset is an ordered collection of records.
type Dataset []Record

// Normalize returns a canonical (key,value)-sorted copy for functional-view
// comparisons across stacks.
func (d Dataset) Normalize() Dataset {
	out := append(Dataset(nil), d...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Equal reports whether two datasets are functionally equal (same multiset
// of records).
func (d Dataset) Equal(other Dataset) bool {
	a, b := d.Normalize(), other.Normalize()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Operation is one abstract processing action. Apply is the reference
// ("functional view") semantics; stack binders provide system-specific
// implementations that must match it.
type Operation struct {
	Name  string
	Arity Arity
	// Apply computes the operation on a (and b for double-set ops) with a
	// string argument.
	Apply func(a, b Dataset, arg string) (Dataset, error)
}

// Op returns the named operation of the vocabulary.
func Op(name string) (Operation, error) {
	for _, op := range operations {
		if op.Name == name {
			return op, nil
		}
	}
	return Operation{}, fmt.Errorf("testgen: unknown operation %q", name)
}

// operations is the abstract operation vocabulary:
//
//	element:    select, project, enrich
//	single-set: sort, count, distinct, top
//	double-set: union, join
//
// plus the basic database operations get, put, delete (element ops over a
// keyed set).
var operations = []Operation{
	{
		Name: "select", Arity: ElementOp,
		Apply: func(a, _ Dataset, arg string) (Dataset, error) {
			var out Dataset
			for _, rec := range a {
				if strings.Contains(rec.Value, arg) {
					out = append(out, rec)
				}
			}
			return out, nil
		},
	},
	{
		Name: "project", Arity: ElementOp,
		Apply: func(a, _ Dataset, _ string) (Dataset, error) {
			out := make(Dataset, len(a))
			for i, rec := range a {
				out[i] = Record{Key: rec.Key}
			}
			return out, nil
		},
	},
	{
		Name: "enrich", Arity: ElementOp,
		Apply: func(a, _ Dataset, arg string) (Dataset, error) {
			out := make(Dataset, len(a))
			for i, rec := range a {
				out[i] = Record{Key: rec.Key, Value: rec.Value + arg}
			}
			return out, nil
		},
	},
	{
		Name: "put", Arity: ElementOp,
		Apply: func(a, _ Dataset, arg string) (Dataset, error) {
			k, v, ok := strings.Cut(arg, "=")
			if !ok {
				return nil, fmt.Errorf("testgen: put needs key=value, got %q", arg)
			}
			out := append(Dataset(nil), a...)
			for i := range out {
				if out[i].Key == k {
					out[i].Value = v
					return out, nil
				}
			}
			return append(out, Record{Key: k, Value: v}), nil
		},
	},
	{
		Name: "get", Arity: ElementOp,
		Apply: func(a, _ Dataset, arg string) (Dataset, error) {
			for _, rec := range a {
				if rec.Key == arg {
					return Dataset{rec}, nil
				}
			}
			return Dataset{}, nil
		},
	},
	{
		Name: "delete", Arity: ElementOp,
		Apply: func(a, _ Dataset, arg string) (Dataset, error) {
			var out Dataset
			for _, rec := range a {
				if rec.Key != arg {
					out = append(out, rec)
				}
			}
			return out, nil
		},
	},
	{
		Name: "sort", Arity: SingleSetOp,
		Apply: func(a, _ Dataset, _ string) (Dataset, error) {
			return a.Normalize(), nil
		},
	},
	{
		Name: "count", Arity: SingleSetOp,
		Apply: func(a, _ Dataset, _ string) (Dataset, error) {
			return Dataset{{Key: "count", Value: strconv.Itoa(len(a))}}, nil
		},
	},
	{
		Name: "distinct", Arity: SingleSetOp,
		Apply: func(a, _ Dataset, _ string) (Dataset, error) {
			seen := map[Record]bool{}
			var out Dataset
			for _, rec := range a {
				if !seen[rec] {
					seen[rec] = true
					out = append(out, rec)
				}
			}
			return out, nil
		},
	},
	{
		Name: "top", Arity: SingleSetOp,
		Apply: func(a, _ Dataset, arg string) (Dataset, error) {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("testgen: top needs a count, got %q", arg)
			}
			sorted := a.Normalize()
			if n > len(sorted) {
				n = len(sorted)
			}
			return sorted[:n], nil
		},
	},
	{
		Name: "union", Arity: DoubleSetOp,
		Apply: func(a, b Dataset, _ string) (Dataset, error) {
			out := append(Dataset(nil), a...)
			return append(out, b...), nil
		},
	},
	{
		Name: "join", Arity: DoubleSetOp,
		Apply: func(a, b Dataset, _ string) (Dataset, error) {
			byKey := map[string][]string{}
			for _, rec := range b {
				byKey[rec.Key] = append(byKey[rec.Key], rec.Value)
			}
			var out Dataset
			for _, rec := range a {
				for _, v := range byKey[rec.Key] {
					out = append(out, Record{Key: rec.Key, Value: rec.Value + "|" + v})
				}
			}
			return out, nil
		},
	},
}
