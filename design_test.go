package mosaic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// declared indexes what the Go files of internal/<pkg> (tests included:
// the table names test references too) declare: "F" for a function, type,
// variable or constant, "T.M" for a method, a struct field or an interface
// method of type T.
func declared(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if len(files) == 0 {
		return nil
	}
	names := make(map[string]bool)
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				names[name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members != nil {
							for _, m := range members.List {
								for _, id := range m.Names {
									names[spec.Name.Name+"."+id.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

// TestDesignEquationMapNamesCode holds the "Eq. N → code" table of
// DESIGN.md § 3 to the code, as the route, flag and span-name tables are
// held to theirs: every back-quoted entry of the Code column is a
// package-qualified identifier — pkg.Name, pkg.Type.Member or
// pkg.Type{Field, ...} — that internal/<pkg> declares.
func TestDesignEquationMapNamesCode(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## 3. Key algorithms and equations")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 3. Key algorithms and equations" section`)
	}
	_, table, ok := strings.Cut(section, "\n|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md § 3 has no two-column table")
	}
	table, _, _ = strings.Cut(table, "\n\n") // the table ends at the first blank line

	quoted := regexp.MustCompile("`([^`]+)`")
	ident := regexp.MustCompile(`^([a-z]+)\.(\w+)(?:\.(\w+)|\{([\w, ]+)\})?$`)
	pkgs := map[string]map[string]bool{}
	checked := 0
	for _, row := range strings.Split(table, "\n") {
		paper, code, ok := strings.Cut(strings.TrimPrefix(row, "| "), " | ")
		if !ok {
			t.Fatalf("not a two-column row: %q", row)
		}
		for _, q := range quoted.FindAllStringSubmatch(code, -1) {
			m := ident.FindStringSubmatch(q[1])
			if m == nil {
				t.Errorf("%s: `%s` is not pkg.Name, pkg.Type.Member or pkg.Type{Field, ...}", paper, q[1])
				continue
			}
			names, seen := pkgs[m[1]]
			if !seen {
				names = declared(t, m[1])
				pkgs[m[1]] = names
			}
			want := []string{m[2]}
			switch {
			case m[3] != "":
				want = []string{m[2] + "." + m[3]}
			case m[4] != "":
				want = nil
				for _, field := range strings.Split(m[4], ",") {
					want = append(want, m[2]+"."+strings.TrimSpace(field))
				}
			}
			for _, name := range want {
				checked++
				if !names[name] {
					t.Errorf("%s: `%s` names %s.%s, which internal/%s does not declare", paper, q[1], m[1], name, m[1])
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked %d identifiers; was the table's format changed?", checked)
	}
}

// TestDocsStayWithinTheirCaps holds the caps of ROADMAP item 7: README.md
// at most 700 lines, DESIGN.md at most 800, and each CHANGES.md line (one
// a PR) at most 600 characters.
func TestDocsStayWithinTheirCaps(t *testing.T) {
	read := func(name string) []string {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	}
	for name, limit := range map[string]int{"README.md": 700, "DESIGN.md": 800} {
		if n := len(read(name)); n > limit {
			t.Errorf("%s has %d lines, over its cap of %d", name, n, limit)
		}
	}
	for i, line := range read("CHANGES.md") {
		if n := utf8.RuneCountInString(line); n > 600 {
			t.Errorf("CHANGES.md line %d has %d characters, over its cap of 600", i+1, n)
		}
	}
}

// TestDesignLayoutListsTheTree holds the file map of DESIGN.md § 6 to the
// tree: every path it names exists, and its cmd/{…} and internal/{…}
// groups list exactly the directories under cmd/ and internal/.
func TestDesignLayoutListsTheTree(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## 6. Repository layout\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 6. Repository layout" section`)
	}
	_, block, ok := strings.Cut(section, "```\n")
	if !ok {
		t.Fatal("DESIGN.md § 6 has no code block")
	}
	block, _, _ = strings.Cut(block, "```")
	block = regexp.MustCompile(`#.*`).ReplaceAllString(block, "")

	// Expand each parent/{a,b,...}/ group, which may span lines, into
	// one path per name.
	listed := map[string]map[string]bool{}
	var paths []string
	group := regexp.MustCompile(`([\w.]+)/\{([^}]*)\}/?`)
	for _, m := range group.FindAllStringSubmatch(block, -1) {
		names := map[string]bool{}
		for _, name := range strings.Split(m[2], ",") {
			name = strings.TrimSpace(name)
			names[name] = true
			paths = append(paths, filepath.Join(m[1], name))
		}
		listed[m[1]] = names
	}
	paths = append(paths, strings.Fields(group.ReplaceAllString(block, ""))...)
	for _, p := range paths {
		if p == "..." {
			continue
		}
		if _, err := os.Stat(p); err != nil {
			t.Errorf("DESIGN.md § 6 lists %s, which does not exist", p)
		}
	}
	for _, parent := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !listed[parent][e.Name()] {
				t.Errorf("DESIGN.md § 6 does not list %s/%s", parent, e.Name())
			}
		}
	}
	if len(listed["cmd"]) == 0 || len(listed["internal"]) == 0 {
		t.Fatalf("found no cmd/{…} or internal/{…} group in DESIGN.md § 6: %v", listed)
	}
}
