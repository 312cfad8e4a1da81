package wls_test

import (
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
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
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
