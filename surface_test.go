package dualgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFacadeSurface pins the facade's exported names to
// testdata/facade_surface.golden (sorted, one per line), so adding or
// removing a public name is a visible, reviewed diff of that file.
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "dualgraph.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
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
	slices.Sort(got)

	raw, err := os.ReadFile(filepath.Join("testdata", "facade_surface.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	if !slices.IsSorted(want) {
		t.Fatal("testdata/facade_surface.golden is not sorted")
	}
	if slices.Equal(got, want) {
		return
	}
	var added, missing []string
	for _, n := range got {
		if _, ok := slices.BinarySearch(want, n); !ok {
			added = append(added, n)
		}
	}
	for _, n := range want {
		if _, ok := slices.BinarySearch(got, n); !ok {
			missing = append(missing, n)
		}
	}
	t.Fatalf("facade exports %d names, golden lists %d\nadded (not in golden): %v\nmissing (in golden only): %v",
		len(got), len(want), added, missing)
}
