package code56

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFacadeSurface pins the package's exported top-level names to
// testdata/facade.txt (one name per line, sorted), so every addition to or
// removal from the public surface updates that list on purpose.
func TestFacadeSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["code56"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	raw, err := os.ReadFile("testdata/facade.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	if !slices.Equal(got, want) {
		t.Fatalf("exported names differ from testdata/facade.txt; if the change is deliberate, replace the file with:\n%s", strings.Join(got, "\n"))
	}
}
