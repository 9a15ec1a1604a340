package advdet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignBenchmarkNamesExist is the doc-drift gate for DESIGN.md's
// regenerating targets: every Benchmark… name the document gives (the
// experiment index of §4 and the ablation list of §5 among them) must
// be a benchmark function of this module, so a renamed or deleted
// benchmark cannot leave the index pointing at nothing.
func TestDesignBenchmarkNamesExist(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\bBenchmark[A-Za-z0-9_]+`).FindAllString(string(data), -1)
	if len(named) == 0 {
		t.Fatal("DESIGN.md names no benchmark; the index moved or the pattern is stale")
	}
	defined := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				defined[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range named {
		if !defined[name] {
			t.Errorf("DESIGN.md names %s, but no test file defines func %s", name, name)
		}
	}
}
