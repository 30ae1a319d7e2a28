package ocs

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

// TestDocNamesResolve holds README.md and EXPERIMENTS.md to the code they
// name: every backticked pkg.Name whose first segment is one of the module's
// packages and whose second an exported identifier must be declared in that
// package's non-test Go, and a pkg.Type.Member must name a field or method
// of the type. A lowercase second segment is a metric or span name
// (`core.decide_us`, `convcache.hit`), not Go, and is left alone. A renamed
// or deleted declaration fails here, at the doc line that still names it.
func TestDocNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	ref := regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	span := regexp.MustCompile("`([^`]+)`")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, sp := range span.FindAllStringSubmatch(line, -1) {
				for _, m := range ref.FindAllStringSubmatch(sp[1], -1) {
					pkg, name, member := m[1], m[2], m[3]
					p := decls[pkg]
					if p == nil {
						continue
					}
					switch members, ok := p[name]; {
					case !ok:
						t.Errorf("%s:%d: `%s` names no declaration of package %s", doc, i+1, sp[1], pkg)
					case member != "" && !members[member]:
						t.Errorf("%s:%d: `%s` names no field or method %s of %s.%s", doc, i+1, sp[1], member, pkg, name)
					}
				}
			}
		}
	}
}

// moduleDecls maps each of the module's packages, by name, to its top-level
// declarations in non-test files, each with the fields and methods it has
// when it is a type. Main packages are left out: nothing names into them.
func moduleDecls(t *testing.T) map[string]map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pkg := out[f.Name.Name]
		if pkg == nil {
			pkg = map[string]map[string]bool{}
			out[f.Name.Name] = pkg
		}
		member := func(typ, name string) {
			if pkg[typ] == nil {
				pkg[typ] = map[string]bool{}
			}
			pkg[typ][name] = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					member(d.Name.Name, "")
					continue
				}
				recv := d.Recv.List[0].Type // T, *T, T[P] or *T[P, Q]
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if ix, ok := recv.(*ast.IndexListExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							member(n.Name, "")
						}
					case *ast.TypeSpec:
						member(s.Name.Name, "")
						var fields *ast.FieldList
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						for _, fl := range fieldsOf(fields) {
							member(s.Name.Name, fl)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("found no packages")
	}
	return out
}

// fieldsOf names a struct's fields or an interface's methods; an embedded
// field goes by its type's name.
func fieldsOf(fl *ast.FieldList) []string {
	if fl == nil {
		return nil
	}
	var names []string
	for _, f := range fl.List {
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		if len(f.Names) == 0 {
			typ := f.Type
			if s, ok := typ.(*ast.StarExpr); ok {
				typ = s.X
			}
			switch e := typ.(type) {
			case *ast.Ident:
				names = append(names, e.Name)
			case *ast.SelectorExpr:
				names = append(names, e.Sel.Name)
			}
		}
	}
	return names
}
