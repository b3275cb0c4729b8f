package config

import (
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

// TestDocPathsExist keeps the prose honest about the tree, the way
// TestConfigKeysMatchDocs keeps it honest about the keys: every repository
// path README, DESIGN, EXPERIMENTS and the verify skill mention exists (a
// trailing :line or Go selector such as pkg/rdmamr.EngineByName is
// dropped; a glob must match something), every backticked bare *.go
// name is some file's name, and no ROADMAP item is named by its number,
// which every re-anchor of ROADMAP.md renumbers. Delete or move code and
// this fails until the docs follow.
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

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
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
}
