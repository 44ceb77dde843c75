// Command reach prints every non-test function under internal/ that no
// command, example or bench workload reaches, and checks that set
// against the kept list in DESIGN.md "Inventory": each unreached
// function must be listed there with its reason, and each listed
// function must be unreached. It exits non-zero when the two differ in
// either direction.
//
//	go run ./cmd/reach        (make reach; from the repository root)
//
// Every command, every example and the bench child are built with
// `go build -cover -coverpkg=migflow/...` into a temporary directory,
// the fixed run list below runs once with one shared GOCOVERDIR (shard
// workers and bench children inherit it), and `go tool covdata
// textfmt` merges the profiles. A function is reached when any of its
// blocks ran. The profile is read block by block rather than through
// `go tool cover -func`, which prints 0 % for a reached function with
// an empty body. Files the host's build constraints exclude (the
// !linux and msgpoison variants) are not inventoried; a package no
// binary links counts as wholly unreached.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runs is the fixed configuration list: every command configuration
// that reaches a paper path, the six examples, and one traced
// repetition of each bench workload. The first word names a binary
// built from cmd/ (examples carry an "examples/" prefix; migbench is
// the bench child).
var runs = [][]string{
	{"repro", "-quick"},
	{"examples/quickstart"}, {"examples/stencil"}, {"examples/loadbalance"},
	{"examples/bigsim"}, {"examples/faulttolerance"}, {"examples/flows"},
	{"btmz"}, {"btmz", "-trace"}, {"btmz", "-overlap", "-reduce", "2"},
	{"btmz", "-coll", "topo"}, {"btmz", "-coll", "flat"},
	{"btmz", "-mode", "ult", "-lb", "greedy"}, {"btmz", "-mode", "event", "-lb", "greedy"},
	{"btmz", "-mode", "ult", "-lb", "refine"}, {"btmz", "-mode", "event", "-lb", "refine"},
	{"btmz", "-mode", "ult", "-lb", "rotate"}, {"btmz", "-mode", "event", "-lb", "rotate"},
	{"btmz", "-mode", "ult", "-lb", "commaware"}, {"btmz", "-mode", "event", "-lb", "commaware"},
	{"btmz", "-mode", "ult", "-lb", "hier"}, {"btmz", "-mode", "event", "-lb", "hier"},
	{"btmz", "-mode", "event", "-overlap", "-coll", "topo"},
	{"flowbench", "-mode", "both", "-ranks", "1024"},
	{"flowbench", "-mode", "both", "-ranks", "1024", "-migrate", "4", "-overlap"},
	{"flowbench", "-mode", "event", "-ranks", "256", "-max", "64"},
	{"flowbench", "-all", "-max", "256"},
	{"bigsim", "-mode", "both"}, {"bigsim", "-mode", "both", "-agg", "-footprint"},
	{"shardrun", "-app", "jacobi", "-net", "unix"}, {"shardrun", "-app", "jacobi", "-net", "shm"},
	{"shardrun", "-app", "jacobi", "-net", "tcp"},
	{"shardrun", "-app", "jacobi", "-net", "shm", "-migrate", "8"},
	{"shardrun", "-app", "btmz", "-net", "unix"}, {"shardrun", "-app", "btmz", "-net", "shm"},
	{"shardrun", "-app", "btmz", "-net", "unix", "-migrate", "8"},
	{"shardrun", "-app", "bigsim", "-net", "unix"}, {"shardrun", "-app", "bigsim", "-net", "shm", "-agg"},
	{"limits"}, {"stackbench"},
	{"migbench", "-workload", "jacobi_event_128k", "-trace", "1"},
	{"migbench", "-workload", "jacobi_ult_8k", "-trace", "1"},
	{"migbench", "-workload", "btmz_event_lb", "-trace", "1"},
	{"migbench", "-workload", "btmz_ult_lb", "-trace", "1"},
	{"migbench", "-workload", "bigsim_event_200k", "-trace", "1"},
	{"migbench", "-workload", "shard_jacobi_shm", "-trace", "1"},
	{"migbench", "-workload", "shard_jacobi_unix", "-trace", "1"},
	{"migbench", "-workload", "repro_full", "-trace", "1"},
}

const (
	module    = "migflow/"
	keptBegin = "<!-- reach: kept functions -->"
	keptEnd   = "<!-- reach: end -->"
)

func main() {
	if err := reach(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func reach() error {
	funcs, err := inventory(".")
	if err != nil {
		return err
	}
	kept, err := readKept("DESIGN.md")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "migflow-reach-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	prof, err := profile(tmp)
	if err != nil {
		return err
	}

	unreached := map[funcKey]bool{}
	var stmts, hit int
	for _, f := range funcs {
		s, h := f.statements(prof)
		stmts, hit = stmts+s, hit+h
		if !f.reached(prof) {
			unreached[f.key] = true
		}
	}
	report(funcs, unreached)
	fmt.Printf("\nstatements reached: %d of %d (%.1f %%) under internal/\n", hit, stmts, 100*float64(hit)/float64(stmts))

	var diffs []string
	for _, f := range funcs {
		if _, ok := kept[f.key]; unreached[f.key] && !ok {
			diffs = append(diffs, fmt.Sprintf("unreached and not in the kept list: %s", f.key))
		}
	}
	for k := range kept {
		if !unreached[k] {
			diffs = append(diffs, fmt.Sprintf("in the kept list but reached (or gone): %s", k))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("the measured set and DESIGN.md's kept list differ:\n  %s", strings.Join(diffs, "\n  "))
	}
	fmt.Printf("kept list matches: %d functions\n", len(kept))
	return nil
}

// profile builds every binary with coverage, runs the run list and
// returns the merged block counts.
func profile(tmp string) (map[string][]block, error) {
	bin, cov, work := filepath.Join(tmp, "bin"), filepath.Join(tmp, "cov"), filepath.Join(tmp, "work")
	for _, d := range []string{filepath.Join(bin, "examples"), cov, work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// -o into a directory needs the trailing separator.
	cover := "-coverpkg=" + module + "..."
	builds := [][]string{
		{"build", "-cover", cover, "-o", bin + string(filepath.Separator), "./cmd/..."},
		{"build", "-cover", cover, "-o", filepath.Join(bin, "examples") + string(filepath.Separator), "./examples/..."},
		{"build", "-C", "bench", "-cover", cover, "-o", filepath.Join(bin, "migbench"), "."},
	}
	for _, args := range builds {
		if err := command("", nil, "go", args...); err != nil {
			return nil, err
		}
	}
	env := []string{"GOCOVERDIR=" + cov}
	for _, r := range runs {
		start := time.Now()
		if err := command(work, env, filepath.Join(bin, r[0]), r[1:]...); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%6.1fs  %s\n", time.Since(start).Seconds(), strings.Join(r, " "))
	}
	out := filepath.Join(tmp, "cover.txt")
	if err := command("", nil, "go", "tool", "covdata", "textfmt", "-i="+cov, "-o="+out); err != nil {
		return nil, err
	}
	return readProfile(out)
}

// command runs name with args in dir and returns its output in the
// error when it fails.
func command(dir string, env []string, name string, args ...string) error {
	c := exec.Command(name, args...)
	c.Dir, c.Env = dir, append(os.Environ(), env...)
	if out, err := c.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return nil
}

// block is one basic block of a text coverage profile: its start
// position, statement count and whether any run executed it.
type block struct {
	line, col, stmts int
	hit              bool
}

var profileLine = regexp.MustCompile(`^(\S+\.go):(\d+)\.(\d+),\d+\.\d+ (\d+) (\d+)$`)

// readProfile returns a text profile's blocks per repository-relative
// file. A block listed twice (the bench child is built in its own
// module) is one block, hit if either copy ran.
func readProfile(path string) (map[string][]block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type pos struct {
		file      string
		line, col int
	}
	seen := map[pos]int{}
	blocks := map[string][]block{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := profileLine.FindStringSubmatch(sc.Text())
		if m == nil || !strings.HasPrefix(m[1], module) {
			continue
		}
		file := strings.TrimPrefix(m[1], module)
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		stmts, _ := strconv.Atoi(m[4])
		hit := m[5] != "0"
		p := pos{file, line, col}
		if i, ok := seen[p]; ok {
			blocks[file][i].hit = blocks[file][i].hit || hit
			continue
		}
		seen[p] = len(blocks[file])
		blocks[file] = append(blocks[file], block{line, col, stmts, hit})
	}
	return blocks, sc.Err()
}

// funcKey names a function by file and name, so that an edit elsewhere
// in the file does not change it. Methods are Type.Method.
type funcKey struct{ file, name string }

func (k funcKey) String() string { return k.file + " " + k.name }

// function is one non-test function declaration with a body.
type function struct {
	key   funcKey
	body  [2]token.Position // the braces
	lines int
}

func (f function) contains(b block) bool {
	after := b.line > f.body[0].Line || b.line == f.body[0].Line && b.col >= f.body[0].Column
	before := b.line < f.body[1].Line || b.line == f.body[1].Line && b.col <= f.body[1].Column
	return after && before
}

func (f function) reached(prof map[string][]block) bool {
	for _, b := range prof[f.key.file] {
		if b.hit && f.contains(b) {
			return true
		}
	}
	return false
}

func (f function) statements(prof map[string][]block) (stmts, hit int) {
	for _, b := range prof[f.key.file] {
		if f.contains(b) {
			stmts += b.stmts
			if b.hit {
				hit += b.stmts
			}
		}
	}
	return stmts, hit
}

// inventory parses every non-test Go file under root/internal that the
// host's build constraints select and returns its functions in file
// order.
func inventory(root string) ([]function, error) {
	var funcs []function
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			funcs = append(funcs, function{
				key:   funcKey{filepath.ToSlash(rel), funcName(fn)},
				body:  [2]token.Position{fset.Position(fn.Body.Lbrace), fset.Position(fn.Body.Rbrace)},
				lines: fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1,
			})
		}
		return nil
	})
	return funcs, err
}

// funcName is a declaration's name, Type.Method for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fn.Name.Name
		default:
			return fn.Name.Name
		}
	}
}

// keptLine is one entry of the kept list: - `file` `name`: reason.
var keptLine = regexp.MustCompile("^- `([^`]+)` `([^`]+)`: (.*)$")

// readKept returns the kept list between DESIGN.md's markers, each
// function with its reason.
func readKept(path string) (map[funcKey]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := string(data)
	i, j := strings.Index(text, keptBegin), strings.Index(text, keptEnd)
	if i < 0 || j < i {
		return nil, fmt.Errorf("%s: no %q ... %q section", path, keptBegin, keptEnd)
	}
	kept := map[funcKey]string{}
	for _, line := range strings.Split(text[i+len(keptBegin):j], "\n") {
		if !strings.HasPrefix(line, "- ") {
			continue
		}
		m := keptLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("%s: kept-list line not of the form - `file` `name`: reason: %q", path, line)
		}
		k := funcKey{m[1], m[2]}
		if _, dup := kept[k]; dup {
			return nil, fmt.Errorf("%s: %s listed twice", path, k)
		}
		kept[k] = strings.TrimSpace(m[3])
	}
	return kept, nil
}

// report prints the unreached functions per package with their lines.
func report(funcs []function, unreached map[funcKey]bool) {
	byPkg := map[string][]function{}
	var pkgs []string
	total, lines := 0, 0
	for _, f := range funcs {
		if !unreached[f.key] {
			continue
		}
		pkg := filepath.Dir(f.key.file)
		if byPkg[pkg] == nil {
			pkgs = append(pkgs, pkg)
		}
		byPkg[pkg] = append(byPkg[pkg], f)
		total, lines = total+1, lines+f.lines
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		n := 0
		for _, f := range byPkg[pkg] {
			n += f.lines
		}
		fmt.Printf("%s: %d functions, %d lines\n", pkg, len(byPkg[pkg]), n)
		for _, f := range byPkg[pkg] {
			fmt.Printf("  %-40s %-36s %4d\n", filepath.Base(f.key.file), f.key.name, f.lines)
		}
	}
	fmt.Printf("\n%d of %d functions (%d lines) reached by no run\n", total, len(funcs), lines)
}
