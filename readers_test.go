package ocs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFamilyHasAReader holds both daemons' /metrics families to the
// reader rule: each family pinned in a families file is read by a CI
// assertion, a benchmark, an example or DESIGN §12's symbol map. A family
// nobody reads is deleted with the code that feeds it, not kept "in case".
// The test reads files only; the pinned-families tests in internal/server
// and internal/cluster keep those files equal to what the daemons export.
func TestEveryFamilyHasAReader(t *testing.T) {
	readers := map[string]string{} // where → text
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	readers[".github/workflows/ci.yml"] = read(filepath.Join(".github", "workflows", "ci.yml"))
	bench, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil || len(bench) == 0 {
		t.Fatalf("no benchmark sources (%v)", err)
	}
	for _, p := range bench {
		readers[p] = read(p)
	}
	err = filepath.WalkDir("examples", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			readers[p] = read(p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	readers["DESIGN.md's symbol map"] = symbolMap(t, read("DESIGN.md"))

	for _, golden := range []string{
		filepath.Join("internal", "server", "testdata", "metric_families.txt"),
		filepath.Join("internal", "cluster", "testdata", "router_families.txt"),
	} {
		text := strings.TrimSpace(read(golden))
		if text == "" {
			t.Fatalf("%s lists no families", golden)
		}
		for _, line := range strings.Split(text, "\n") {
			name := strings.Fields(line)[0]
			// A histogram is read through its _bucket, _sum or _count series.
			re := regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `(_bucket|_sum|_count)?\b`)
			found := false
			for _, r := range readers {
				if re.MatchString(r) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: family %s has no reader in CI, benchmark/, examples/ or DESIGN §12's map; read it or delete it", golden, name)
			}
		}
	}
}

// symbolMap returns the rows of the table right under DESIGN.md's
// "→ paper symbols" heading, the map from exported families to the paper's
// symbols. It finds the section by its heading text, not its number.
func symbolMap(t *testing.T, design string) string {
	t.Helper()
	sec, _ := designSection(t, design, "→ paper symbols")
	var rows []string
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md's \"→ paper symbols\" section has no table")
	}
	return strings.Join(rows, "\n")
}
