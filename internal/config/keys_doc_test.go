package config

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// configRowRe matches one row of README's configuration table: the key,
// its default, and the tag saying why the key exists.
var configRowRe = regexp.MustCompile("^\\| `([a-z][a-z0-9._]*)` \\| ([^|]*) \\| ([^|]*) \\|")

// TestConfigKeysMatchDocs pins `defaults` to the README's "Configuration"
// table, the way TestCounterNamesMatchDocs pins the counter namespace:
// every key with a registered default has a row, every row names a live
// key with the default the code has, and every row is tagged *paper §…*,
// *moves …* (a benchmark row) or *test-only* — the key census. Delete a
// key — or add one — and this fails until the table follows.
func TestConfigKeysMatchDocs(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Configuration\n")
	if !ok {
		t.Fatal("README has no \"## Configuration\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	inDocs := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		m := configRowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key, def, tag := m[1], strings.TrimSpace(m[2]), strings.TrimSpace(m[3])
		if inDocs[key] {
			t.Errorf("%s has two rows", key)
		}
		inDocs[key] = true
		want, live := defaults[key]
		if !live {
			continue // reported below with the other phantoms
		}
		if want == "" {
			want = "(empty)"
		}
		if def != want {
			t.Errorf("%s: README says default %s, code has %s", key, def, want)
		}
		if !strings.HasPrefix(tag, "paper §") && !strings.HasPrefix(tag, "moves ") && tag != "test-only" {
			t.Errorf("%s: tag %q is not \"paper §…\", \"moves …\" or \"test-only\"", key, tag)
		}
	}

	var undocumented, phantom []string
	for key := range defaults {
		if !inDocs[key] {
			undocumented = append(undocumented, key)
		}
	}
	for key := range inDocs {
		if _, live := defaults[key]; !live {
			phantom = append(phantom, key)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(phantom)
	if len(undocumented) > 0 {
		t.Errorf("keys with a default but no row in README's configuration table: %v", undocumented)
	}
	if len(phantom) > 0 {
		t.Errorf("rows in README's configuration table that name no live key: %v", phantom)
	}
}
