// Command reachcheck fails when a function in internal/ is reached by no
// binary the repository ships.
//
// It builds every package main in the module (go list ./...) and the
// nested benchmark module with inlining off and the linker's dependency
// dump on, collects every symbol the linker marks reachable, and parses
// the non-test Go files under internal/ into linker names
// (sspd/internal/core.(*Federation).Start). A function that no binary
// reaches must be listed in tools/reachcheck/allow.txt, one linker name
// per line followed by "# <the test or export that uses it>"; an entry
// that is reached, or names no function, fails the check too.
//
// Run it from the module root:
//
//	go run ./tools/reachcheck
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

const allowFile = "tools/reachcheck/allow.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := modulePath()
	if err != nil {
		return err
	}
	reached, err := reachedSymbols()
	if err != nil {
		return err
	}
	funcs, err := internalFuncs(module)
	if err != nil {
		return err
	}
	allow, err := readAllow()
	if err != nil {
		return err
	}

	var dead []fn
	var stale []string
	unreached, lines := 0, 0
	known := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		known[f.name] = true
		_, allowed := allow[f.name]
		switch {
		case f.reachedBy(reached):
			if allowed {
				stale = append(stale, f.name+" is reached by a binary")
			}
		default:
			unreached++
			lines += f.lines
			if !allowed {
				dead = append(dead, f)
			}
		}
	}
	for name := range allow {
		if !known[name] {
			stale = append(stale, name+" names no function in internal/")
		}
	}
	sort.Strings(stale)
	fmt.Printf("reachcheck: %d functions in internal/; %d reached by no binary (%d lines with their doc comments), %d of them allowed\n",
		len(funcs), unreached, lines, len(allow))
	for _, f := range dead {
		fmt.Printf("%s:%d: %s (%d lines)\n", f.file, f.line, f.name, f.lines)
	}
	for _, msg := range stale {
		fmt.Printf("%s: %s\n", allowFile, msg)
	}
	if len(dead) > 0 || len(stale) > 0 {
		return fmt.Errorf("%d functions reached by no binary and %d stale allowlist entries: wire each function into the path it was written for, delete it, or name its test user in %s",
			len(dead), len(stale), allowFile)
	}
	return nil
}

func modulePath() (string, error) {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("go.mod has no module line")
}

// reachedSymbols links every shipped binary with -dumpdep and returns both
// sides of every edge the linker printed. -l keeps a function that is
// inlined at every call site from vanishing as a symbol.
func reachedSymbols() (map[string]bool, error) {
	out, err := exec.Command("go", "list", "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	mains := strings.Fields(string(out))
	tmp, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	dumpdep := []string{"-gcflags=all=-l", "-ldflags=-dumpdep"}
	builds := [][]string{
		slices.Concat([]string{"build"}, dumpdep, []string{"-o", tmp + string(filepath.Separator)}, mains),
		slices.Concat([]string{"build", "-C", "benchmark"}, dumpdep, []string{"-o", filepath.Join(tmp, "benchmark"), "."}),
	}
	reached := make(map[string]bool)
	for _, args := range builds {
		var dump bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stderr = &dump
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, tail(dump.String()))
		}
		sc := bufio.NewScanner(&dump)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			// Split on " -> " only: generic shape names contain spaces.
			from, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok {
				continue
			}
			reached[from] = true
			reached[to] = true
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return reached, nil
}

func tail(s string) string {
	if len(s) > 2000 {
		return s[len(s)-2000:]
	}
	return s
}

type fn struct {
	name  string // linker name; for a generic, up to the type-parameter bracket
	tail  string // for a generic method, "]).M" or "].M" after the shape list
	file  string
	line  int
	lines int // with the doc comment
}

func (f fn) reachedBy(reached map[string]bool) bool {
	if f.tail == "" && !strings.HasSuffix(f.name, "[") {
		return reached[f.name]
	}
	for sym := range reached {
		if strings.HasPrefix(sym, f.name) && strings.HasSuffix(sym, f.tail) {
			return true
		}
	}
	return false
}

// internalFuncs parses every non-test file under internal/ and names each
// declared function the way the linker does. init functions are skipped:
// they run whenever their package is linked.
func internalFuncs(module string) ([]fn, error) {
	fset := token.NewFileSet()
	var funcs []fn
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || (d.Recv == nil && d.Name.Name == "init") {
				continue
			}
			f := linkerName(pkg, d)
			start := d.Pos()
			if d.Doc != nil {
				start = d.Doc.Pos()
			}
			f.file = path
			f.line = fset.Position(d.Pos()).Line
			f.lines = fset.Position(d.End()).Line - fset.Position(start).Line + 1
			funcs = append(funcs, f)
		}
		return nil
	})
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].name < funcs[j].name })
	return funcs, err
}

func linkerName(pkg string, d *ast.FuncDecl) fn {
	if d.Recv == nil {
		if d.Type.TypeParams != nil {
			return fn{name: pkg + "." + d.Name.Name + "["}
		}
		return fn{name: pkg + "." + d.Name.Name}
	}
	typ := d.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	generic := false
	switch t := typ.(type) {
	case *ast.IndexExpr:
		generic, typ = true, t.X
	case *ast.IndexListExpr:
		generic, typ = true, t.X
	}
	recv := typ.(*ast.Ident).Name
	switch {
	case star && generic:
		return fn{name: pkg + ".(*" + recv + "[", tail: "])." + d.Name.Name}
	case generic:
		return fn{name: pkg + "." + recv + "[", tail: "]." + d.Name.Name}
	case star:
		return fn{name: pkg + ".(*" + recv + ")." + d.Name.Name}
	}
	return fn{name: pkg + "." + recv + "." + d.Name.Name}
}

// readAllow reads allow.txt: one linker name per line, each followed by
// "# <its user>". Blank lines and lines starting with # are skipped.
func readAllow() (map[string]string, error) {
	b, err := os.ReadFile(allowFile)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, user, ok := strings.Cut(line, "#")
		name, user = strings.TrimSpace(name), strings.TrimSpace(user)
		if !ok || user == "" {
			return nil, fmt.Errorf("%s:%d: %q names no user: add \"# <the test or export that calls it>\"", allowFile, i+1, name)
		}
		allow[name] = user
	}
	return allow, nil
}
