package wls_test

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealTests holds the prose to the tree: every Test…,
// Benchmark… or Fuzz… name in backticks in DESIGN.md, EXPERIMENTS.md and
// README.md is a function some _test.go file declares. A name followed by
// `*`, or inside a `-bench=` pattern, stands for every function it
// prefixes. Fenced code blocks are not inline names and are skipped.
func TestDocsNameRealTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
	}

	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`[^`]+`")
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*(\*?)`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(fence.ReplaceAllString(string(text), ""), -1) {
			for _, m := range name.FindAllStringSubmatch(s, -1) {
				n, prefix := strings.TrimSuffix(m[0], "*"), m[1] == "*" || strings.Contains(s, "-bench=")
				if !declaredAs(declared, n, prefix) {
					t.Errorf("%s names %s in %s, and no test function matches it", doc, n, s)
				}
			}
		}
	}
}

// TestLibraryOnlyTableMatchesDirectives holds DESIGN.md's "Library-only
// features" table to the code: the tests its rows name are the tests the
// //wls:nolint unreached -- library-only: directives name, on functions
// and on fields alike, so a directive cannot go in without its row, nor a
// row outlive its directive.
func TestLibraryOnlyTableMatchesDirectives(t *testing.T) {
	testName := regexp.MustCompile(`\bTest\w+`)
	inCode := map[string]string{} // test -> where a directive names it
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if _, reason, ok := strings.Cut(line, "//wls:nolint unreached -- library-only: "); ok {
				for _, n := range testName.FindAllString(reason, -1) {
					inCode[n] = fmt.Sprintf("%s:%d", path, i+1)
				}
			}
		}
	}

	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## Library-only features\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Library-only features" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	inTable := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); strings.HasPrefix(line, "|") && len(cells) > 2 {
			for _, n := range testName.FindAllString(cells[len(cells)-2], -1) {
				inTable[n] = true
			}
		}
	}
	for n, at := range inCode {
		if !inTable[n] {
			t.Errorf("%s: a library-only directive names %s, and no row of DESIGN.md's table does", at, n)
		}
	}
	for n := range inTable {
		if _, ok := inCode[n]; !ok {
			t.Errorf("DESIGN.md's library-only table names %s, and no library-only directive does", n)
		}
	}
}

func declaredAs(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// TestDocsQuoteGatesAsPinned holds DESIGN.md's figures to the gates: every
// `gate…` name it quotes is a constant some _test.go file declares, and a
// figure beside it — "`gateX` = N" in prose, or in a table the next cell,
// one figure per name for "`gateX` / `gateY` | a / b" — is that constant's
// value, so a re-pinned gate cannot leave a stale number behind.
func TestDocsQuoteGatesAsPinned(t *testing.T) {
	gates := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if decl, ok := n.(*ast.GenDecl); ok && decl.Tok == token.CONST {
				for _, spec := range decl.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if lit, ok := valueAt(vs, i).(*ast.BasicLit); ok && gateName.MatchString(name.Name) {
							gates[name.Name] = lit.Value
						}
					}
				}
			}
			return true
		})
	}

	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := regexp.MustCompile("`(" + gatePattern + ")`( = [0-9]+(?:\\.[0-9]+)?)?")
	checked := 0
	check := func(line, name, figure string) {
		checked++
		if want, ok := gates[name]; ok && figure != want {
			t.Errorf("DESIGN.md quotes %s as %s, the constant is %s: %s", name, figure, want, line)
		}
	}
	for _, line := range strings.Split(string(text), "\n") {
		cells := strings.Split(line, "|")
		for i, cell := range cells {
			var inTable []string
			for _, m := range quoted.FindAllStringSubmatch(cell, -1) {
				if _, ok := gates[m[1]]; !ok {
					t.Errorf("DESIGN.md names %s, which no test declares: %s", m[1], line)
				}
				if m[2] != "" {
					check(line, m[1], strings.TrimPrefix(m[2], " = "))
				} else if strings.HasPrefix(line, "|") {
					inTable = append(inTable, m[1])
				}
			}
			if len(inTable) == 0 {
				continue
			}
			var figures []string
			if i+1 < len(cells) {
				figures = strings.Split(strings.TrimSpace(cells[i+1]), " / ")
			}
			if len(figures) != len(inTable) {
				t.Errorf("DESIGN.md row gives %d figures for %v: %s", len(figures), inTable, line)
				continue
			}
			for j, name := range inTable {
				check(line, name, figures[j])
			}
		}
	}
	if checked < len(gates)/2 {
		t.Errorf("DESIGN.md quotes %d gate figures for %d gates", checked, len(gates))
	}
}

// TestPinsAreGates holds where a pinned number lives. A test that
// measures the heap — testing.AllocsPerRun, a testing.Benchmark's
// AllocsPerOp, runtime.MemStats's Mallocs or HeapAlloc — in its own body,
// or through a function of its package other than a main package (whose
// measurements are a program's output), is a pin: it is named TestGate…
// and lives in a file built only without -race, whose race runtime drops
// sync.Pool items and allocates on its own. Such a file declares no other
// test, so no test leaves the race run without joining `make gates`; a
// race-only check is a TestGateRace… test in a file every build compiles.
// A fuzz target that measures lives in a file built only without -race
// too. DESIGN.md's gate table names every TestGate… test.
func TestPinsAreGates(t *testing.T) {
	type pkg struct{ dir, name string }
	type fn struct {
		pos      token.Position
		measures bool
		names    []string // identifiers its body uses
		test     bool     // a Test… function of a _test.go file
		fuzz     bool     // a Fuzz… function of a _test.go file
		raceOff  bool     // its file is built only without -race
	}
	measure := map[string]bool{"AllocsPerRun": true, "AllocsPerOp": true, "Mallocs": true, "HeapAlloc": true}
	funcs := map[pkg]map[string]*fn{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		raceOff := false
		for _, g := range f.Comments {
			for _, c := range g.List {
				if c.Pos() < f.Package && constraint.IsGoBuild(c.Text) {
					expr, err := constraint.Parse(c.Text)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					with := func(race bool) bool { return expr.Eval(func(tag string) bool { return tag != "race" || race }) }
					raceOff = with(false) && !with(true)
				}
			}
		}
		key := pkg{filepath.Dir(path), f.Name.Name}
		if funcs[key] == nil {
			funcs[key] = map[string]*fn{}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			inTest := strings.HasSuffix(path, "_test.go")
			info := &fn{pos: fset.Position(fd.Pos()), raceOff: raceOff,
				test: inTest && strings.HasPrefix(fd.Name.Name, "Test"),
				fuzz: inTest && strings.HasPrefix(fd.Name.Name, "Fuzz")}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					info.measures = info.measures || measure[n.Sel.Name]
				case *ast.Ident:
					info.names = append(info.names, n.Name)
				}
				return true
			})
			funcs[key][fd.Name.Name] = info
		}
	}
	for key, fs := range funcs {
		if key.name == "main" {
			continue // a program's measurements are its output, not pins
		}
		for changed := true; changed; {
			changed = false
			for _, info := range fs {
				for _, n := range info.names {
					if callee := fs[n]; !info.measures && callee != nil && callee.measures {
						info.measures, changed = true, true
					}
				}
			}
		}
	}

	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	inTable := map[string]bool{}
	gateTest := regexp.MustCompile(`\bTestGate\w*`)
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "|") {
			for _, n := range gateTest.FindAllString(line, -1) {
				inTable[n] = true
			}
		}
	}
	for _, fs := range funcs {
		for name, info := range fs {
			if info.fuzz && info.measures && !info.raceOff {
				t.Errorf("%s: %s measures allocations: it belongs in a //go:build !race file", info.pos, name)
			}
			if !info.test {
				continue
			}
			race := strings.HasPrefix(name, "TestGateRace")
			gate := strings.HasPrefix(name, "TestGate") && !race
			switch {
			case info.measures && !gate:
				t.Errorf("%s: %s measures allocations: a pin is a TestGate… test in a //go:build !race file", info.pos, name)
			case gate && !info.raceOff:
				t.Errorf("%s: %s is a gate in a file -race builds: it belongs in a //go:build !race file", info.pos, name)
			case !gate && info.raceOff:
				t.Errorf("%s: %s is no gate, and its //go:build !race file keeps it out of the race run", info.pos, name)
			}
			if gate && !inTable[name] {
				t.Errorf("%s: no row of DESIGN.md's gate table names %s", info.pos, name)
			}
		}
	}
}

const gatePattern = `gate[A-Z]\w*`

var gateName = regexp.MustCompile("^" + gatePattern + "$")

func valueAt(vs *ast.ValueSpec, i int) ast.Expr {
	if i < len(vs.Values) {
		return vs.Values[i]
	}
	return nil
}

// goFiles lists the module's .go files in lexical order, skipping
// testdata and dot directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}
