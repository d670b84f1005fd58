package lint

// A minimal analysistest: testdata packages under testdata/src/<path>
// are type-checked with CheckFiles, run through the analyzers, and
// their diagnostics compared against `// want` comments — the same
// golden-comment convention as golang.org/x/tools/go/analysis/analysistest,
// rebuilt on the standard library so the module's dependency graph
// stays empty. A want comment anchors to its own source line and holds
// one or more regex literals (backquoted or double-quoted) matched
// against "analyzer: message".

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestDetnondet(t *testing.T) { runWantTest(t, "internal/datagen/det", Detnondet) }

func TestDetnondetOptInDirective(t *testing.T) { runWantTest(t, "detopt", Detnondet) }

func TestHotpath(t *testing.T) { runWantTest(t, "hot", Hotpath) }

func TestOprefed(t *testing.T) { runWantTest(t, "internal/hygiene/opref", Oprefed) }

func TestCtxbg(t *testing.T) { runWantTest(t, "internal/engine/ctxtest", Ctxbg) }

// TestSuppressionMisuse checks the malformed-allow contract directly:
// a reasonless or misnamed //bdvet:allow is itself a "bdvet" diagnostic
// and suppresses nothing.
func TestSuppressionMisuse(t *testing.T) {
	pkg := loadTestdata(t, "internal/datagen/badallow")
	diags, err := RunAnalyzers([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	wants := []string{
		"bdvet: //bdvet:allow needs a reason",
		"bdvet: //bdvet:allow names unknown analyzer \"nosuchanalyzer\"",
		"bdvet: //bdvet:allow must name the analyzer(s) it silences",
		"detnondet: wall clock (time.Now)", // the reasonless allow must not suppress
	}
	for _, w := range wants {
		found := false
		for _, g := range got {
			if strings.HasPrefix(g, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), strings.Join(got, "\n"))
	}
}

// TestRepoClean is the smoke test behind `make lint`: the suite must
// run clean over the module itself, so any new violation fails here
// before it ever reaches CI's dedicated lint job.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// ---- harness ----

func loadTestdata(t *testing.T, importPath string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	pkg, err := CheckFiles(importPath, dir, files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func runWantTest(t *testing.T, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadTestdata(t, importPath)
	diags, err := RunAnalyzers([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.file != d.Position.Filename || w.line != d.Position.Line {
				continue
			}
			if w.re.MatchString(d.Analyzer + ": " + d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s",
				filepath.Base(d.Position.Filename), d.Position.Line, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q",
				filepath.Base(w.file), w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, re := range wantPatterns(t, strings.TrimPrefix(text, "want "), posn) {
					out = append(out, want{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no // want comments in testdata", pkg.Path)
	}
	return out
}

func wantPatterns(t *testing.T, s string, posn token.Position) []*regexp.Regexp {
	t.Helper()
	var pats []*regexp.Regexp
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t':
		case '`':
			j := strings.IndexByte(s[i+1:], '`')
			if j < 0 {
				t.Fatalf("%s: unterminated backquoted want pattern", posn)
			}
			pats = append(pats, mustCompile(t, posn, s[i+1:i+1+j]))
			i += j + 1
		case '"':
			j := i + 1
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j >= len(s) {
				t.Fatalf("%s: unterminated quoted want pattern", posn)
			}
			lit, err := strconv.Unquote(s[i : j+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern: %v", posn, err)
			}
			pats = append(pats, mustCompile(t, posn, lit))
			i = j
		default:
			t.Fatalf("%s: malformed want comment (expected quoted regex, got %q)", posn, s[i:])
		}
	}
	return pats
}

func mustCompile(t *testing.T, posn token.Position, expr string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(expr)
	if err != nil {
		t.Fatalf("%s: bad want regex %q: %v", posn, expr, err)
	}
	return re
}
