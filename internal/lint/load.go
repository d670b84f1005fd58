package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Package is one loaded, type-checked analysis unit: a package's
// non-test Go files plus its in-package _test.go files (external _test
// packages are skipped — every bdvet contract exempts test code, so an
// extra compile of each package body buys nothing).
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	DepOnly     bool
	Standard    bool
	Incomplete  bool
	Module      *struct{ GoVersion string }
	Error       *struct{ Err string }
}

// Load resolves the patterns with `go list` and type-checks every
// matched package from source. Imports — stdlib and intra-module alike —
// are satisfied from compiler export data in the build cache, which `go
// list -export` produces as a side effect; nothing is fetched, so the
// loader works in offline builds and keeps go.mod dependency-free.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,TestGoFiles,DepOnly,Standard,Incomplete,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	goVersion := ""
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		variant := strings.ContainsRune(p.ImportPath, ' ') // "pkg [pkg.test]"
		if p.Export != "" && !variant {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || variant || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 || len(p.CgoFiles) > 0 {
			continue
		}
		if goVersion == "" && p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		targets = append(targets, p)
	}

	fset := token.NewFileSet()
	imp := newCacheImporter(fset, dir, exports)
	var pkgs []*Package
	for _, t := range targets {
		var files []string
		for _, name := range append(append([]string{}, t.GoFiles...), t.TestGoFiles...) {
			files = append(files, filepath.Join(t.Dir, name))
		}
		pkg, err := checkUnit(fset, imp, goVersion, t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// CheckFiles type-checks one explicit file set as the given import path,
// resolving imports on demand through `go list -export` run in dir. The
// analysistest harness uses it to load testdata packages that live
// outside the module's package graph.
func CheckFiles(importPath, dir string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	imp := newCacheImporter(fset, dir, nil)
	return checkUnit(fset, imp, "", importPath, filenames)
}

// checkUnit parses and type-checks one package unit from explicit file
// paths, with imports satisfied by the given importer.
func checkUnit(fset *token.FileSet, imp types.Importer, goVersion, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, full := range filenames {
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", full, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// newCacheImporter returns a gc-export-data importer over the build
// cache. known maps import paths to export files discovered up front;
// anything else (the analysistest harness starts with nothing) resolves
// lazily with one `go list -export` per missing path, which also compiles
// the package into the cache on first use.
func newCacheImporter(fset *token.FileSet, dir string, known map[string]string) types.Importer {
	c := &cacheLookup{dir: dir, exports: known}
	if c.exports == nil {
		c.exports = make(map[string]string)
	}
	return importer.ForCompiler(fset, "gc", c.lookup)
}

type cacheLookup struct {
	mu      sync.Mutex
	dir     string
	exports map[string]string
}

func (c *cacheLookup) lookup(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	file, ok := c.exports[path]
	c.mu.Unlock()
	if !ok {
		out, err := exportFileFor(c.dir, path)
		if err != nil {
			return nil, err
		}
		file = out
		c.mu.Lock()
		c.exports[path] = file
		c.mu.Unlock()
	}
	return os.Open(file)
}

func exportFileFor(dir, path string) (string, error) {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("resolving import %q: %v\n%s", path, err, stderr.String())
	}
	file := strings.TrimSpace(string(out))
	if file == "" {
		return "", fmt.Errorf("resolving import %q: no export data", path)
	}
	return file, nil
}
