package config

import (
	"bytes"
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

// repoPathRe matches a repository path in prose: a token starting cmd/,
// internal/, pkg/, examples/, benchmark/ or scripts/, with or without a
// leading ./, that is not the tail of a longer path or import path.
var repoPathRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./)?((?:cmd|internal|pkg|examples|benchmark|scripts)/[A-Za-z0-9_./*-]*)`)

// goFileRe matches a backticked bare Go file name, optionally with a line.
var goFileRe = regexp.MustCompile("`([A-Za-z0-9_]+\\.go)(?::[0-9]+)?`")

// roadmapItemRe matches a ROADMAP item named by its number.
var roadmapItemRe = regexp.MustCompile(`ROADMAP item [0-9]`)

// wrappedRoadmapItemRe is roadmapItemRe across a wrapped comment line.
var wrappedRoadmapItemRe = regexp.MustCompile(`ROADMAP(?:\s|#)+item\s+[0-9]`)

// codeSpanRe matches an inline code span, which may wrap a line.
var codeSpanRe = regexp.MustCompile("`([^`]+)`")

// selectorRe matches pkg.Exported or pkg.Type.Member inside a code span,
// where pkg is not the tail of a path or of a longer selector.
var selectorRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// withoutFences returns a copy of a Markdown document whose fenced code
// blocks are blanked, newlines kept, so that inline code spans pair up.
func withoutFences(doc []byte) []byte {
	out := bytes.Clone(doc)
	fenced := false
	for _, line := range bytes.Split(out, []byte("\n")) {
		fence := bytes.HasPrefix(bytes.TrimLeft(line, " "), []byte("```"))
		if fenced || fence {
			for j := range line {
				line[j] = ' '
			}
		}
		if fence {
			fenced = !fenced
		}
	}
	return out
}

// pkgDecls is what a package's non-test files declare at top level, with
// the methods and fields of each type and the target of each type alias.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
	aliases map[string][2]string // alias → {package name, type}
}

// packageDecls parses the non-test Go files of every package under
// internal/ and pkg/, keyed by package name.
func packageDecls(t *testing.T, root string) map[string]*pkgDecls {
	t.Helper()
	pkgs := map[string]*pkgDecls{}
	for _, top := range []string{"internal", "pkg"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p := pkgs[f.Name.Name]
			if p == nil {
				p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, aliases: map[string][2]string{}}
				pkgs[f.Name.Name] = p
			}
			member := func(typ, name string) {
				if p.members[typ] == nil {
					p.members[typ] = map[string]bool{}
				}
				p.members[typ][name] = true
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						p.names[decl.Name.Name] = true
						continue
					}
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch x := recv.(type) {
					case *ast.IndexExpr:
						recv = x.X
					case *ast.IndexListExpr:
						recv = x.X
					}
					member(recv.(*ast.Ident).Name, decl.Name.Name)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								p.names[n.Name] = true
							}
						case *ast.TypeSpec:
							p.names[spec.Name.Name] = true
							if sel, ok := spec.Type.(*ast.SelectorExpr); ok && spec.Assign.IsValid() {
								if pkg, ok := sel.X.(*ast.Ident); ok {
									p.aliases[spec.Name.Name] = [2]string{pkg.Name, sel.Sel.Name}
								}
							}
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									member(spec.Name.Name, n.Name)
								}
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
	}
	return pkgs
}

// resolves reports whether pkg.name, or pkg.name.member when member is
// set, is declared in the non-test files of a package under internal/ or
// pkg/; a type alias is followed to the type it names.
func resolves(pkgs map[string]*pkgDecls, pkg, name, member string) bool {
	p := pkgs[pkg]
	if p == nil || !p.names[name] {
		return false
	}
	if member == "" {
		return true
	}
	if p.members[name][member] {
		return true
	}
	if to, ok := p.aliases[name]; ok {
		return resolves(pkgs, to[0], to[1], member)
	}
	return false
}

// TestDocPathsExist keeps the prose honest about the tree, the way
// TestConfigKeysMatchDocs keeps it honest about the keys: every repository
// path README, DESIGN, EXPERIMENTS and the verify skill mention exists (a
// trailing :line or Go selector such as pkg/rdmamr.EngineByName is
// dropped; a glob must match something), every backticked bare *.go
// name is some file's name, every backticked selector pkg.Exported or
// pkg.Type.Member whose pkg names a package under internal/ or pkg/ is
// declared in that package's non-test files, and no ROADMAP item is named by its number,
// which every re-anchor of ROADMAP.md renumbers — in those docs, the
// Makefile or scripts/*.sh (benchmark/ is left to the benchmark's own
// changes). Delete or move code and this fails until the docs follow.
func TestDocPathsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	goFiles := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if strings.HasSuffix(d.Name(), ".go") {
			goFiles[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool {
		if strings.Contains(p, "*") {
			m, _ := filepath.Glob(filepath.Join(root, p))
			return len(m) > 0
		}
		_, err := os.Stat(filepath.Join(root, p))
		return err == nil
	}

	pkgs := packageDecls(t, root)

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpanRe.FindAllSubmatchIndex(withoutFences(raw), -1) {
			for _, m := range selectorRe.FindAllStringSubmatch(string(raw[span[2]:span[3]]), -1) {
				if pkgs[m[1]] == nil || resolves(pkgs, m[1], m[2], m[3]) {
					continue
				}
				sel := m[1] + "." + m[2]
				if m[3] != "" {
					sel += "." + m[3]
				}
				line := bytes.Count(raw[:span[0]], []byte("\n")) + 1
				t.Errorf("%s:%d names %s, which %s does not declare", doc, line, sel, m[1])
			}
		}
		for n, line := range strings.Split(string(raw), "\n") {
			for _, m := range repoPathRe.FindAllStringSubmatch(line, -1) {
				p := strings.TrimRight(m[1], ".")
				if exists(p) {
					continue
				}
				// A Go selector: the package directory, then .Name.
				dir, elem := filepath.Split(p)
				if pkg, _, ok := strings.Cut(elem, "."); ok && exists(dir+pkg) {
					continue
				}
				t.Errorf("%s:%d names %s, which does not exist", doc, n+1, p)
			}
			if roadmapItemRe.MatchString(line) {
				t.Errorf("%s:%d names a ROADMAP item by number; name it by its subject", doc, n+1)
			}
			for _, m := range goFileRe.FindAllStringSubmatch(line, -1) {
				if !goFiles[m[1]] {
					t.Errorf("%s:%d names %s, which matches no file", doc, n+1, m[1])
				}
			}
		}
	}

	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(scripts, filepath.Join(root, "Makefile")) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range wrappedRoadmapItemRe.FindAllIndex(raw, -1) {
			t.Errorf("%s:%d names a ROADMAP item by number; name it by its subject", path, bytes.Count(raw[:m[0]], []byte("\n"))+1)
		}
	}
}
