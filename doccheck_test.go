package migflow_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code references TestDocSymbols
// checks. EXPERIMENTS.md and ROADMAP.md are history: they cite what
// existed when each entry was written.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	".claude/skills/verify/SKILL.md",
}

// deletedRefs are references a document cites on purpose as deleted —
// symbols, flags and paths — each with the PR that deleted it. They
// must not resolve: a name that comes back is no longer deleted, and
// its entry goes.
var deletedRefs = map[string]string{
	"core.Config.Steal":          "PR 38",
	"npb.BenchmarkStealMakespan": "PR 38",
	"btmz -steal":                "PR 38",
	"cmd/benchjson":              "PR 24",
	"internal/sdag":              "PR 41",
	"btmz -agg":                  "PR 42",
	"npb.BenchmarkBTMZExchange":  "PR 42",
	"Options.Aggregate":          "PR 42",
}

// symbolRef matches pkg.Name, pkg.Type.Member and Type.Member; the
// caller checks that pkg names a package under internal/, or Type a
// type declared in one.
var symbolRef = regexp.MustCompile(`([A-Za-z][A-Za-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// fileExts are the suffixes that make pkg.ext a file name, not a symbol.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "golden": true, "sh": true, "yml": true, "txt": true, "test": true, "mod": true}

// TestDocSymbols checks every backticked code reference in docFiles
// against the source: a pkg.Name or pkg.Type.Member whose pkg is a
// package under internal/ must be declared there (test files
// included, so cited tests and benchmarks count), a Type.Member whose
// Type is declared in such a package must be a field or method of it
// in one of them, every -flag after a command under cmd/ must be
// defined by a flag.* call in that command, and every path under
// internal/, cmd/, examples/ or bench/ must exist. A name or path cited
// on purpose as deleted is in deletedRefs, and must not resolve.
func TestDocSymbols(t *testing.T) {
	pkgs := map[string]*pkgDecls{}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			pkgs[d.Name()] = parseDecls(t, filepath.Join("internal", d.Name()))
		}
	}
	flags := map[string]map[string]bool{}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if d.IsDir() {
			flags[d.Name()] = parseFlags(t, filepath.Join("cmd", d.Name()))
		}
	}

	cited := map[string]bool{}
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(data)) {
			for _, ref := range symbolRefs(span, pkgs) {
				cited[ref.text] = true
				if pr, ok := deletedRefs[ref.text]; ok {
					if ref.ok {
						t.Errorf("%s: `%s` is cited as deleted in %s but resolves", doc, ref.text, pr)
					}
					continue
				}
				if !ref.ok {
					t.Errorf("%s: `%s` does not resolve in internal/%s", doc, ref.text, ref.pkg)
				}
			}
			for _, m := range pathRef.FindAllStringSubmatch(span, -1) {
				path := strings.TrimRight(m[1], "./")
				cited[path] = true
				_, err := os.Stat(path)
				if pr, ok := deletedRefs[path]; ok {
					if err == nil {
						t.Errorf("%s: `%s` is cited as deleted in %s but exists", doc, path, pr)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: `%s` does not exist", doc, path)
				}
			}
			for _, ref := range flagRefs(span, flags) {
				cited[ref] = true
				cmd, flag, _ := strings.Cut(ref, " -")
				defined := flags[cmd][flag]
				if pr, ok := deletedRefs[ref]; ok {
					if defined {
						t.Errorf("%s: `%s` is cited as deleted in %s but is defined", doc, ref, pr)
					}
					continue
				}
				if !defined {
					t.Errorf("%s: `%s`: cmd/%s defines no -%s flag", doc, ref, cmd, flag)
				}
			}
		}
	}
	for ref := range deletedRefs {
		if !cited[ref] {
			t.Errorf("deletedRefs lists `%s`, which no checked document cites", ref)
		}
	}
}

// pathRef matches a repository path under internal/, cmd/, examples/
// or bench/, also one written as ./path; trailing dots and slashes are
// the caller's to trim.
var pathRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.-]|\./)((?:internal|cmd|examples|bench)/[A-Za-z0-9_./-]*)`)

// roadmapRef matches a reference to a ROADMAP item by number, also one
// a Go comment wraps after the word ROADMAP.
var roadmapRef = regexp.MustCompile(`ROADMAP\s+(?://\s*)?item\s+(\d+)`)

// testName matches a test, benchmark or fuzz target name; a trailing
// `*` makes it a prefix naming a family of them.
var testName = regexp.MustCompile(`(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// runArg matches the pattern of a `go test -run` or `-bench` flag,
// quoted or bare.
var runArg = regexp.MustCompile(`-(?:run|bench)[ =](?:'[^']*'|"[^"]*"|\S+)`)

// TestDocTestNames checks every backticked Test…, Benchmark… or Fuzz…
// name in docFiles against the test functions in the tree: it must
// name one, or be the prefix of one when it ends in `*` or sits in a
// -run or -bench pattern (which go test matches unanchored). A name
// qualified by its package is TestDocSymbols' to check.
func TestDocTestNames(t *testing.T) {
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, "_test.go"):
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(data)) {
			patterns := runArg.FindAllStringIndex(span, -1)
			for _, m := range testName.FindAllStringIndex(span, -1) {
				if m[0] > 0 && (span[m[0]-1] == '.' || isIdentByte(span[m[0]-1])) {
					continue // qualified, or inside a longer name
				}
				name := span[m[0]:m[1]]
				for _, p := range patterns {
					if p[0] <= m[0] && m[1] <= p[1] && !strings.HasSuffix(name, "*") {
						name += "*"
					}
				}
				if !resolvesTest(name, funcs) {
					t.Errorf("%s: `%s` names no test, benchmark or fuzz target in the tree", doc, name)
				}
			}
		}
	}
}

// resolvesTest reports whether name is a function in funcs or, ending
// in `*`, the prefix of one.
func resolvesTest(name string, funcs map[string]bool) bool {
	prefix, family := strings.CutSuffix(name, "*")
	if !family {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// TestRoadmapItemRefs checks every reference to a ROADMAP item by number
// in docFiles and in the Go sources: the number must be one of the items
// ROADMAP.md's "Open items" list carries, and a reference to an item the
// list marks [done must say "done" on its own line.
func TestRoadmapItemRefs(t *testing.T) {
	items := roadmapItems(t)
	files := append([]string(nil), docFiles...)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range roadmapRef.FindAllStringSubmatchIndex(text, -1) {
			n, _ := strconv.Atoi(text[m[2]:m[3]])
			start := strings.LastIndexByte(text[:m[0]], '\n') + 1
			end := m[1] + strings.IndexByte(text[m[1]:]+"\n", '\n')
			at := strings.Count(text[:m[0]], "\n") + 1
			done, ok := items[n]
			switch {
			case !ok:
				t.Errorf("%s:%d: ROADMAP item %d is not in ROADMAP.md's open items", f, at, n)
			case done && !strings.Contains(text[start:end], "done"):
				t.Errorf("%s:%d: ROADMAP item %d is done, and the line citing it must say so", f, at, n)
			}
		}
	}
}

// readmeCount matches README's count of the tests `go test ./...` runs.
var readmeCount = regexp.MustCompile(`(\d+) top-level Test functions and (\d+) fuzz targets across (\d+) packages`)

// TestReadmeTestCount checks README's count of top-level Test functions,
// fuzz targets and the packages holding them against the tree that
// `go test ./...` builds: every _test.go file outside bench/ (a module
// of its own) and hidden directories. TestMain is no test.
func TestReadmeTestCount(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (?:(Test)[A-Z0-9_]\w*\(\w+ \*testing\.T\)|(Fuzz)[A-Z0-9_]\w*\(\w+ \*testing\.F\))`)
	tests, fuzz, pkgs := 0, 0, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench"):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, "_test.go"):
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
				if m[1] != "" {
					tests++
				} else {
					fuzz++
				}
				pkgs[filepath.Dir(path)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := readmeCount.FindStringSubmatch(string(data))
	if m == nil {
		t.Fatal("README.md states no count of Test functions, fuzz targets and packages")
	}
	if got := fmt.Sprintf("%d %d %d", tests, fuzz, len(pkgs)); got != strings.Join(m[1:], " ") {
		t.Errorf("README.md says %s Test functions, %s fuzz targets and %s packages; the tree has %d, %d and %d",
			m[1], m[2], m[3], tests, fuzz, len(pkgs))
	}
}

// roadmapItems returns the numbers of the items ROADMAP.md's "Open
// items" list carries, each with whether the list marks it [done.
func roadmapItems(t *testing.T) map[int]bool {
	t.Helper()
	data, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(data), "\n## Open items\n")
	if !ok {
		t.Fatal(`ROADMAP.md has no "## Open items" section`)
	}
	list, _, _ = strings.Cut(list, "\n## ")
	items := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. \*\*\[([^\]]*)\]`).FindAllStringSubmatch(list, -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = strings.HasPrefix(m[2], "done")
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md's open items list no numbered item")
	}
	return items
}

// codeSpans returns the contents of every inline code span and fenced
// code block in a Markdown document.
func codeSpans(doc string) []string {
	var spans []string
	var fence []string
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if inFence {
				spans = append(spans, strings.Join(fence, "\n"))
				fence = fence[:0]
			}
			inFence = !inFence
			continue
		}
		if inFence {
			fence = append(fence, line)
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts)-1; i += 2 {
			spans = append(spans, parts[i])
		}
	}
	return spans
}

type symRef struct {
	text, pkg string
	ok        bool
}

// symbolRefs finds the pkg.Name[.Member] references in span whose pkg
// is an internal package, and the Type.Member references whose Type is
// declared in one, and reports whether each resolves.
func symbolRefs(span string, pkgs map[string]*pkgDecls) []symRef {
	var out []symRef
	for _, m := range symbolRef.FindAllStringSubmatchIndex(span, -1) {
		if m[0] > 0 && strings.ContainsAny(span[m[0]-1:m[0]], "/.-_*&") ||
			m[0] > 0 && isIdentByte(span[m[0]-1]) {
			continue // a path, a file name or a longer selector
		}
		pkg, name := span[m[2]:m[3]], span[m[4]:m[5]]
		if 'A' <= pkg[0] && pkg[0] <= 'Z' {
			if ref, ok := typeMemberRef(pkg, name, pkgs); ok {
				out = append(out, ref)
			}
			continue
		}
		decls := pkgs[pkg]
		if decls == nil || fileExts[name] || strings.Contains(name, "_") {
			continue // not a package, a file name, or a snake_case bench metric
		}
		text, member := span[m[0]:m[5]], ""
		if m[6] >= 0 && decls.types[name] {
			text, member = span[m[0]:m[1]], span[m[6]:m[7]]
		}
		ok := decls.names[name] && (member == "" || decls.members[name+"."+member])
		out = append(out, symRef{text: text, pkg: pkg, ok: ok})
	}
	return out
}

// typeMemberRef resolves an unqualified Type.Member: it reports
// false when no internal package declares Type.
func typeMemberRef(typ, member string, pkgs map[string]*pkgDecls) (symRef, bool) {
	ref := symRef{text: typ + "." + member}
	for name, decls := range pkgs {
		if !decls.types[typ] {
			continue
		}
		if ref.pkg == "" || name < ref.pkg {
			ref.pkg = name
		}
		ref.ok = ref.ok || decls.members[typ+"."+member]
	}
	return ref, ref.pkg != ""
}

func isIdentByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// flagRef matches a command name (bare, or as a cmd/ path) and the
// rest of its command line. A name inside another path, such as
// ./internal/bigsim, is not a command.
var flagRef = regexp.MustCompile(`(?:^|[\s(])(?:\./)?(?:cmd/)?([a-z]+)((?:\s+[^\s|;&>` + "`" + `]+)+)`)

// flagRefs returns "cmd -flag" for every flag written after a command
// under cmd/ in span.
func flagRefs(span string, flags map[string]map[string]bool) []string {
	var out []string
	for _, m := range flagRef.FindAllStringSubmatch(span, -1) {
		cmd := m[1]
		if flags[cmd] == nil {
			continue
		}
		for _, tok := range strings.Fields(m[2]) {
			name := strings.TrimLeft(tok, "-")
			if len(tok)-len(name) != 1 || name == "" || !('a' <= name[0] && name[0] <= 'z') {
				continue // a value, a path, or a long option of another tool
			}
			name, _, _ = strings.Cut(name, "=")
			out = append(out, cmd+" -"+name)
		}
	}
	return out
}

// pkgDecls is what a package declares at top level: every name, which
// of them are types, and each type's methods and fields as
// "Type.Member".
type pkgDecls struct {
	names, types, members map[string]bool
}

func parseDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	d := &pkgDecls{names: map[string]bool{}, types: map[string]bool{}, members: map[string]bool{}}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.names[decl.Name.Name] = true
					continue
				}
				d.members[recvType(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.names[spec.Name.Name] = true
						d.types[spec.Name.Name] = true
						addMembers(d, spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// recvType names a method receiver's base type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// addMembers records a struct type's fields or an interface type's
// methods.
func addMembers(d *pkgDecls, typ string, e ast.Expr) {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			d.members[typ+"."+n.Name] = true
		}
		if len(f.Names) == 0 { // embedded: promoted under its type name
			d.members[typ+"."+recvType(f.Type)] = true
		}
	}
}

// parseFlags returns the flag names a command defines: the string
// literal name argument of every flag.* call in its package.
func parseFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			// flag.String("name", …) or flag.StringVar(&v, "name", …).
			for _, arg := range call.Args[:min(2, len(call.Args))] {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return names
}
