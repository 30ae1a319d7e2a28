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

// TestDocNamesResolve holds DESIGN.md, README.md and EXPERIMENTS.md to the
// code they name. Inside a backticked span:
//
//   - a pkg.Name whose first segment is one of the module's packages and
//     whose second an exported identifier must be declared in that
//     package's non-test Go, and a pkg.Type.Member must name a field or
//     method of the type, promoted ones included;
//   - a bare Type.Member must name a field or method of some module type of
//     that name (a lowercase member is only checked when such a type
//     exists, so `README.md` is a file, not a type).
//
// A lowercase second segment is a metric or span name (`core.decide_us`,
// `convcache.hit`), not Go, and is left alone. DESIGN's removed-designs
// table is the one exemption, and there the check runs the other way: a
// package-qualified name in it that does resolve fails, because the table
// cannot list something that is still alive. A renamed or deleted
// declaration fails here, at the doc line that still names it.
func TestDocNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	ref := regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	bare := regexp.MustCompile(`(?:^|[^\w./-])([A-Z]\w*)\.(\w+)`)
	span := regexp.MustCompile("`([^`]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var removed map[int]bool
		if doc == "DESIGN.md" {
			removed = removedTableRows(t, string(b))
		}
		for i, line := range strings.Split(string(b), "\n") {
			inRemoved := removed[i]
			for _, sp := range span.FindAllStringSubmatch(line, -1) {
				for _, m := range ref.FindAllStringSubmatch(sp[1], -1) {
					pkg, name, member := m[1], m[2], m[3]
					if decls.pkgs[pkg] == nil {
						continue
					}
					ok, why := decls.resolve(pkg, name, member)
					switch {
					case inRemoved && ok:
						t.Errorf("%s:%d: `%s` is in the removed-designs table but still resolves", doc, i+1, sp[1])
					case !inRemoved && !ok:
						t.Errorf("%s:%d: `%s` %s", doc, i+1, sp[1], why)
					}
				}
				if inRemoved {
					continue
				}
				for _, m := range bare.FindAllStringSubmatch(sp[1], -1) {
					typ, member := m[1], m[2]
					owners := decls.types[typ]
					if len(owners) == 0 {
						if member[0] >= 'A' && member[0] <= 'Z' {
							t.Errorf("%s:%d: `%s` names no module type %s", doc, i+1, sp[1], typ)
						}
						continue
					}
					found := false
					for _, pkg := range owners {
						if ok, _ := decls.resolve(pkg, typ, member); ok {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s:%d: `%s` names no field or method %s of any module type %s (%s)", doc, i+1, sp[1], member, typ, strings.Join(owners, ", "))
					}
				}
			}
		}
	}
}

// removedTableRows marks the lines (0-based) of the table rows in DESIGN's
// "Removed designs" section; without that table it fails the test.
func removedTableRows(t *testing.T, design string) map[int]bool {
	t.Helper()
	sec, first := designSection(t, design, "Removed designs")
	rows := map[int]bool{}
	for i, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "|") {
			rows[first+i] = true
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md's removed-designs section has no table")
	}
	return rows
}

// designSection returns the lines under the "## " heading of DESIGN.md that
// contains title, up to the next heading of any level, and the 0-based line
// number of the first of them.
func designSection(t *testing.T, design, title string) (string, int) {
	t.Helper()
	lines := strings.Split(design, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "## ") && strings.Contains(l, title) {
			j := i + 1
			for j < len(lines) && !strings.HasPrefix(lines[j], "#") {
				j++
			}
			return strings.Join(lines[i+1:j], "\n"), i + 1
		}
	}
	t.Fatalf("DESIGN.md has no section headed %q", title)
	return "", 0
}

// TestDocCitationsResolve holds every `DESIGN §N` citation to a numbered
// heading of DESIGN.md, and DESIGN's inventory to the module's layout:
//
//   - a "DESIGN §N" or "DESIGN.md §N" (a line break between the two
//     allowed) in any Go file, tests included, in README.md, EXPERIMENTS.md,
//     ROADMAP.md, CI, the Makefile or the verify skill's notes, and every
//     bare §N inside DESIGN.md itself, must name a "## N." heading;
//   - every directory directly under internal/, cmd/ and examples/ must be
//     named, backticked, in DESIGN's inventory section.
//
// CHANGES.md is history and cites the numbering of its day; it is not read.
func TestDocCitationsResolve(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	heads := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(design, -1) {
		heads[m[1]] = true
	}
	if len(heads) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	check := func(path, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatchIndex(text, -1) {
			if n := text[m[2]:m[3]]; !heads[n] {
				line := strings.Count(text[:m[0]], "\n") + 1
				t.Errorf("%s:%d: cites DESIGN §%s, which has no heading", path, line, n)
			}
		}
	}
	check("DESIGN.md", design, regexp.MustCompile(`§(\d+)`))
	cite := regexp.MustCompile(`DESIGN(?:\.md)?[\s/#]*§(\d+)`)
	files := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", "Makefile",
		filepath.Join(".github", "workflows", "ci.yml"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	files = append(files, moduleFiles(t)...)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		check(p, string(b), cite)
	}

	inv, _ := designSection(t, design, "System inventory")
	for _, root := range []string{"internal", "cmd", "examples"} {
		ents, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if dir := root + "/" + e.Name(); e.IsDir() && !strings.Contains(inv, "`"+dir+"`") {
				t.Errorf("DESIGN.md's inventory does not name `%s`", dir)
			}
		}
	}
}

// moduleFiles lists the module's Go files, tests included, skipping hidden
// directories, testdata and the benchmark module.
func moduleFiles(t *testing.T) []string {
	t.Helper()
	var out []string
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
		if strings.HasSuffix(p, ".go") {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("found no Go files")
	}
	return out
}

// decls is what the module declares at top level in non-test files.
type decls struct {
	// pkgs maps a package name to its top-level names, each with the fields
	// and methods it declares when it is a type.
	pkgs map[string]map[string]map[string]bool
	// embeds maps "pkg.Type" to the types it embeds, as "pkg.Type".
	embeds map[string][]string
	// types maps a type name to the packages that declare it.
	types map[string][]string
}

// resolve reports whether pkg.name (and .member, when set) is declared,
// following embedded fields for the member; when it is not, why says so.
func (d *decls) resolve(pkg, name, member string) (ok bool, why string) {
	if _, ok := d.pkgs[pkg][name]; !ok {
		return false, "names no declaration of package " + pkg
	}
	if member == "" || d.hasMember(pkg+"."+name, member, map[string]bool{}) {
		return true, ""
	}
	return false, "names no field or method " + member + " of " + pkg + "." + name
}

func (d *decls) hasMember(typ, member string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	pkg, name, _ := strings.Cut(typ, ".")
	if d.pkgs[pkg][name][member] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.hasMember(e, member, seen) {
			return true
		}
	}
	return false
}

// moduleDecls parses the module's non-test Go. Main packages are left out:
// nothing names into them. An embedded pkg.Type is recorded under the name
// it is imported by, which in this module is always the package's name.
func moduleDecls(t *testing.T) *decls {
	t.Helper()
	out := &decls{pkgs: map[string]map[string]map[string]bool{}, embeds: map[string][]string{}, types: map[string][]string{}}
	fset := token.NewFileSet()
	for _, path := range moduleFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := f.Name.Name
		if name == "main" {
			continue
		}
		pkg := out.pkgs[name]
		if pkg == nil {
			pkg = map[string]map[string]bool{}
			out.pkgs[name] = pkg
		}
		member := func(typ, m string) {
			if pkg[typ] == nil {
				pkg[typ] = map[string]bool{}
			}
			pkg[typ][m] = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					member(d.Name.Name, "")
					continue
				}
				if id := typeName(d.Recv.List[0].Type); id != nil {
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
						typ := name + "." + s.Name.Name
						member(s.Name.Name, "")
						out.types[s.Name.Name] = append(out.types[s.Name.Name], name)
						var fields *ast.FieldList
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						for _, fl := range fieldsOf(fields) {
							member(s.Name.Name, fl.name)
							switch {
							case fl.pkg != "":
								out.embeds[typ] = append(out.embeds[typ], fl.pkg+"."+fl.name)
							case fl.embedded:
								out.embeds[typ] = append(out.embeds[typ], name+"."+fl.name)
							}
						}
					}
				}
			}
		}
	}
	if len(out.pkgs) == 0 {
		t.Fatal("found no packages")
	}
	return out
}

// typeName strips a receiver or embedded type down to its name: T, *T,
// T[P] or *T[P, Q].
func typeName(e ast.Expr) *ast.Ident {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if ix, ok := e.(*ast.IndexListExpr); ok {
		e = ix.X
	}
	id, _ := e.(*ast.Ident)
	return id
}

// field is one name a struct or interface declares. An embedded field goes
// by its type's name; pkg is the package of an embedded pkg.Type.
type field struct {
	name, pkg string
	embedded  bool
}

// fieldsOf names a struct's fields or an interface's methods.
func fieldsOf(fl *ast.FieldList) []field {
	if fl == nil {
		return nil
	}
	var out []field
	for _, f := range fl.List {
		for _, n := range f.Names {
			out = append(out, field{name: n.Name})
		}
		if len(f.Names) > 0 {
			continue
		}
		typ := f.Type
		if s, ok := typ.(*ast.StarExpr); ok {
			typ = s.X
		}
		if id := typeName(typ); id != nil {
			out = append(out, field{name: id.Name, embedded: true})
		} else if sel, ok := typ.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				out = append(out, field{name: sel.Sel.Name, pkg: x.Name, embedded: true})
			}
		}
	}
	return out
}
