package core_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var counterNameRe = regexp.MustCompile(`shuffle\.rdma\.[a-z][a-z0-9._]*[a-z0-9]`)

// mrCounterNameRe covers the slab MR accountant's namespace, emitted by
// internal/mrpool and documented in the same README table. The guard
// group keeps the `mapred.rdma.mr.slab.bytes` config key (a dotted
// superstring) from matching as a counter name; the counter is the
// first capture group.
var mrCounterNameRe = regexp.MustCompile(`(?:^|[^.a-z0-9])(mr\.slab\.[a-z][a-z0-9._]*[a-z0-9])`)

// cacheCounterNameRe covers the PrefetchCache's `cache.*` counters. Only a
// quoted (code) or backticked (README) name counts, which keeps method
// calls on a field named cache and the `...cache.bytes` config keys out.
var cacheCounterNameRe = regexp.MustCompile("[\"`](cache\\.[a-z][a-z0-9._]*[a-z0-9])[\"`]")

// scanDir collects counter names matched by res in a directory's non-test
// Go sources.
func scanDir(t *testing.T, dir string, into map[string]bool, res ...*regexp.Regexp) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range res {
			collect(re, string(src), into)
		}
	}
}

// collect adds re's matches in s to into — the first capture group when
// the pattern has one, the whole match otherwise.
func collect(re *regexp.Regexp, s string, into map[string]bool) {
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		name := m[0]
		if len(m) > 1 {
			name = m[1]
		}
		into[name] = true
	}
}

// TestCounterNamesMatchDocs pins the counter namespace to the README's
// "Shuffle counter reference" table: every `shuffle.rdma.*` and `cache.*`
// name used by this package's non-test sources — and every `mr.slab.*`
// name used by internal/mrpool — must be documented, and every name the
// README mentions must exist in the sources. Rename a counter — or add
// one — and this fails until the table is updated, so dashboards built
// on the documented names never silently break.
func TestCounterNamesMatchDocs(t *testing.T) {
	inCode := map[string]bool{}
	scanDir(t, ".", inCode, counterNameRe, mrCounterNameRe, cacheCounterNameRe)
	scanDir(t, filepath.Join("..", "mrpool"), inCode, mrCounterNameRe)
	if len(inCode) == 0 {
		t.Fatal("no shuffle.rdma.* counters found in package sources")
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	inDocs := map[string]bool{}
	collect(counterNameRe, string(readme), inDocs)
	collect(mrCounterNameRe, string(readme), inDocs)
	collect(cacheCounterNameRe, string(readme), inDocs)

	var undocumented, phantom []string
	for name := range inCode {
		if !inDocs[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range inDocs {
		if !inCode[name] {
			phantom = append(phantom, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(phantom)
	if len(undocumented) > 0 {
		t.Errorf("counters used in code but missing from README's reference table: %v", undocumented)
	}
	if len(phantom) > 0 {
		t.Errorf("counters documented in README but absent from the code: %v", phantom)
	}
}
