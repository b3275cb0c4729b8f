// Command unreached lists the functions declared in the non-test files of
// internal/ and pkg/ that no program links, given the text symbols of the
// programs. scripts/unreached.sh builds the programs and runs it:
//
//	unreached -allow scripts/unreached.allow nm-output...
//
// Each argument is the output of `go tool nm` for one binary. A function
// counts as reached when its symbol is among them, a generic one when any
// instance is. Closures and compiler-made wrappers are never declared, so
// they are never listed. The file set is the host's (GOOS, GOARCH, no
// build tags).
//
// The allowlist holds one entry a line, a function as this command prints
// it (internal/hdfs.(*FileSystem).Fsck) or a whole package
// (internal/alloctest.*), then the reason it is kept. Blank lines and lines
// starting with # are skipped. The command exits 1 when an unreached
// function is not on the list, or when an entry names nothing unreached
// (it is stale).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one function declaration of a scanned package.
type decl struct {
	pkg   string // module-relative import path, e.g. internal/kv
	name  string // Name, T.Name or (*T).Name
	pos   string // file:line of the func keyword
	lines int    // from the func keyword to the closing brace
}

func (d decl) String() string { return d.pkg + "." + d.name }

func main() {
	allowPath := flag.String("allow", "", "allowlist file")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: unreached -allow file nm-output...")
		os.Exit(2)
	}
	module, err := modulePath("go.mod")
	check(err)
	reached := map[string]bool{}
	for _, f := range flag.Args() {
		check(readSymbols(f, module+"/", reached))
	}
	var decls []decl
	for _, root := range []string{"internal", "pkg"} {
		ds, err := scan(root)
		check(err)
		decls = append(decls, ds...)
	}
	allow, err := readAllow(*allowPath)
	check(err)

	unreached, listed, lines := 0, 0, 0
	used := map[string]bool{} // allowlist entries that cover an unreached function
	for _, d := range decls {
		if reached[d.String()] {
			continue
		}
		unreached++
		lines += d.lines
		switch {
		case allow[d.String()]:
			used[d.String()] = true
		case allow[d.pkg+".*"]:
			used[d.pkg+".*"] = true
		default:
			listed++
			fmt.Printf("%s\t%s\t%d lines\n", d, d.pos, d.lines)
		}
	}
	var stale []string
	for e := range allow {
		if !used[e] {
			stale = append(stale, e)
		}
	}
	sort.Strings(stale)
	for _, e := range stale {
		fmt.Printf("stale allowlist entry: %s\n", e)
	}
	fmt.Printf("%d functions declared, %d unreached (%d lines): %d allowlisted, %d not; %d allowlist entries, %d stale\n",
		len(decls), unreached, lines, unreached-listed, listed, len(allow), len(stale))
	if listed > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

// readSymbols adds to reached every text symbol of the module in one nm
// output, with the type arguments of generic instances and the ABI suffix
// of assembly functions (kv.Prefetch.abi0) removed.
func readSymbols(path, prefix string, reached map[string]bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  4a1230 T name", where a generic name may hold spaces.
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		if name, ok := strings.CutPrefix(fields[2], prefix); ok {
			reached[strings.TrimSuffix(stripTypeArgs(name), ".abi0")] = true
		}
	}
	return sc.Err()
}

// stripTypeArgs removes every bracketed type-argument list, nested ones
// included: kv.(*Iterator[go.shape.int]).Next becomes kv.(*Iterator).Next.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// scan lists the functions declared in the host's non-test files of every
// package under root.
func scan(root string) ([]decl, error) {
	var decls []decl
	err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		p, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				start := fset.Position(fn.Pos())
				decls = append(decls, decl{
					pkg:   filepath.ToSlash(dir),
					name:  funcName(fn),
					pos:   fmt.Sprintf("%s:%d", start.Filename, start.Line),
					lines: fset.Position(fn.End()).Line - start.Line + 1,
				})
			}
		}
		return nil
	})
	return decls, err
}

// funcName is fn's name as the linker spells it, less type arguments:
// F, T.M or (*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// readAllow reads the allowlist's entries; each must give a reason.
func readAllow(path string) (map[string]bool, error) {
	allow := map[string]bool{}
	if path == "" {
		return allow, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		entry := fields[0]
		if len(fields) == 1 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, entry)
		}
		if allow[entry] {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, i+1, entry)
		}
		allow[entry] = true
	}
	return allow, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
}
