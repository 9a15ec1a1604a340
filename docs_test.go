package advdet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignBenchmarkNamesExist is the doc-drift gate for the test and
// benchmark names DESIGN.md and README.md give: every Benchmark… name
// (the experiment index of DESIGN §4 and the ablation list of §5 among
// them) and every Test… and Fuzz… name must be a function of this
// module's test files, so a renamed or deleted test cannot leave the
// documents pointing at nothing.
func TestDesignBenchmarkNamesExist(t *testing.T) {
	defined := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				defined[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`\bBenchmark[A-Za-z0-9_]+|\b(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named := pattern.FindAllString(string(data), -1)
		if doc == "DESIGN.md" && !slices.ContainsFunc(named, func(n string) bool { return strings.HasPrefix(n, "Benchmark") }) {
			t.Fatal("DESIGN.md names no benchmark; the index moved or the pattern is stale")
		}
		for _, name := range named {
			if !defined[name] {
				t.Errorf("%s names %s, but no test file defines func %s", doc, name, name)
			}
		}
	}
}
