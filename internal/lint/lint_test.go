package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestResetCompleteFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{ResetComplete}, "resetcomplete")
}

func TestPoolLifeFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{PoolLife}, "poollife")
}

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{Determinism}, "determinism")
}

func TestSweepOwnerFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{SweepOwner}, "sweepowner")
}

// TestDirectivesFixture checks the directives validation pass directly:
// its diagnostics anchor on the directive comments themselves, where the
// `// want` convention cannot follow (a line holds one comment), so the
// expected findings are asserted against lines located by content.
func TestDirectivesFixture(t *testing.T) {
	root := fixtureRoot(t)
	loader := NewLoader(root, "")
	prog, err := loader.Load("directives")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunAnalyzers(prog, []*Analyzer{Directives})
	if err != nil {
		t.Fatalf("running analyzer: %v", err)
	}
	src, err := os.ReadFile(filepath.Join(root, "directives", "a.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineWhere := func(match func(string) bool, desc string) int {
		for i, l := range strings.Split(string(src), "\n") {
			if match(l) {
				return i + 1
			}
		}
		t.Fatalf("fixture line %s not found", desc)
		return 0
	}
	contains := func(substr string) func(string) bool {
		return func(l string) bool { return strings.Contains(l, substr) }
	}
	want := []struct {
		line    int
		message string
	}{
		{lineWhere(contains("keep-accross-reset"), "with the typo'd directive"),
			`unknown gridlint directive "keep-accross-reset"`},
		// gofmt spaces the bare comment to "// gridlint:"; the analyzer
		// trims that space, so both spellings are the same diagnostic.
		{lineWhere(func(l string) bool { return strings.TrimSpace(l) == "// gridlint:" }, "with the bare directive"),
			"comment with no directive word"},
		{lineWhere(contains("var c []int"), "declaring var c"),
			"//gridlint:allow-retain needs a justification"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), FormatDiagnostics(diags))
	}
	for i, w := range want {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.message) {
			t.Errorf("diagnostic %d = %s; want line %d containing %q", i, diags[i], w.line, w.message)
		}
	}
}

// TestSuiteCleanOnRealTree runs the full analyzer suite over the actual
// module and requires zero diagnostics: the tree must stay lint-clean.
// This is the same check CI's lint job performs through cmd/gridlint; it
// type-checks the whole module (and its std imports) from source, so it is
// skipped in -short runs.
func TestSuiteCleanOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "gridrealloc")
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("enumerating module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found under module root")
	}
	prog, err := loader.Load(pkgs...)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(prog, Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("gridlint reports %d diagnostics on the tree; it must be clean:\n%s",
			len(diags), FormatDiagnostics(diags))
	}
}

// TestModulePackagesSkipsTestdata guards the loader's package walk: fixture
// trees and hidden directories must not leak into the analyzed set.
func TestModulePackagesSkipsTestdata(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "gridrealloc")
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		if seen[p] {
			t.Errorf("package %s listed twice", p)
		}
		seen[p] = true
		if filepath.Base(p) == "testdata" {
			t.Errorf("testdata leaked into package list: %s", p)
		}
	}
	for _, want := range []string{"gridrealloc/internal/batch", "gridrealloc/internal/lint", "gridrealloc/cmd/gridlint"} {
		if !seen[want] {
			t.Errorf("expected %s in module package list, got %v", want, pkgs)
		}
	}
}

// TestModulePackagesSkipsNestedModules checks that a subdirectory with its
// own go.mod is left out of the walk, as go list ./... leaves it out, even
// when its name carries no "_" or "." prefix.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n\ngo 1.24\n")
	write("outer.go", "package outer\n")
	write("pkg/pkg.go", "package pkg\n")
	write("bench/go.mod", "module outer/bench\n\ngo 1.24\n")
	write("bench/main.go", "package main\n")
	write("bench/sub/sub.go", "package sub\n")
	pkgs, err := NewLoader(root, "outer").ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "outer/pkg"}
	if !reflect.DeepEqual(pkgs, want) {
		t.Fatalf("ModulePackages() = %v, want %v", pkgs, want)
	}
}

func TestDiagnosticFormatting(t *testing.T) {
	d := Diagnostic{
		Analyzer: "determinism",
		Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
		Message:  "call to time.Now",
	}
	want := "a.go:3:7: determinism: call to time.Now"
	if got := d.String(); got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
	formatted := FormatDiagnostics([]Diagnostic{d})
	if !strings.Contains(formatted, want) {
		t.Fatalf("FormatDiagnostics = %q, should contain %q", formatted, want)
	}
	if FormatDiagnostics(nil) != "" {
		t.Fatal("FormatDiagnostics(nil) should be empty")
	}
}

func TestLoaderProgramAccessor(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, "")
	if _, err := l.Load("determinism"); err != nil {
		t.Fatal(err)
	}
	prog := l.Program()
	if prog == nil || prog.Packages["determinism"] == nil {
		t.Fatal("Program() should expose the loaded determinism package")
	}
}

// TestCalleeOf checks the static call resolution resetcomplete and
// sweepowner rely on: every call in the fixture is tagged with the function
// CalleeOf must resolve it to ("-" for none), and generic instantiations,
// explicit or inferred, resolve to their origin declaration.
func TestCalleeOf(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "callee")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package callee

import "strings"

type box struct{ n int }

func (b *box) bump()                     { b.n++ }
func (b *box) fn() func()                { return b.bump }
func ident[T any](x T) T                 { return x }
func pair[K comparable, V any](k K, v V) {}

func calls(b *box, f func()) {
	b.bump()                 // bump
	_ = ident(1)             // ident
	_ = ident[int](2)        // ident
	pair[string, int]("", 1) // pair
	_ = strings.ToUpper("x") // ToUpper
	(b.bump)()               // bump
	f()                      // -
	b.fn()()                 // -
	_ = int64(3)             // -
	_ = len("x")             // -
}
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := NewLoader(root, "").Load("callee")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pkg := prog.Packages["callee"]
	want := make(map[int]string)
	for _, cg := range pkg.Files[0].Comments {
		line := prog.Fset.Position(cg.Pos()).Line
		want[line] = strings.TrimSpace(strings.TrimPrefix(cg.List[0].Text, "//"))
	}
	seen := make(map[int]bool)
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// The tag names the outermost call of its line, which the
		// pre-order walk meets first (b.fn()() before b.fn()).
		line := prog.Fset.Position(call.Pos()).Line
		w, tagged := want[line]
		if !tagged || seen[line] {
			return true
		}
		seen[line] = true
		got := "-"
		if fn := CalleeOf(pkg.Info, call); fn != nil {
			got = fn.Name()
			if fn.Origin() != fn {
				t.Errorf("line %d: CalleeOf returned an instance of %s, want its origin", line, got)
			}
		}
		if got != w {
			t.Errorf("line %d: CalleeOf = %s, want %s", line, got, w)
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("checked %d tagged calls, fixture tags %d", len(seen), len(want))
	}
}
