package exp

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// catalogText renders the registry's metadata — what `cbctl list -v` and
// `serve /v1/experiments` expose — one block per experiment in registry
// order. Bounds and tolerances print at full precision, so relaxing a
// budget by any amount changes the text.
func catalogText() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&b, "%s@%d\n", e.Name, e.Version)
		fmt.Fprintf(&b, "  title: %s\n  grid: %s\n  profile: %s\n", e.Title, e.Grid, e.Profile)
		keys := make([]string, 0, len(e.Tolerance))
		for k := range e.Tolerance {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  tolerance: %s %s\n", k, g(e.Tolerance[k]))
		}
		for _, bu := range e.Budgets {
			fmt.Fprintf(&b, "  budget: %s %s %s\n", bu.Measure, bu.Kind, g(bu.Bound))
		}
	}
	return b.String()
}

// TestCatalogMetadata pins every experiment's header (name, version, title,
// grid, profile, tolerances, budgets) to testdata/catalog.txt, so a registry
// refactor cannot silently change what the catalog advertises — relaxing a
// budget included. A deliberate change rewrites the file by hand from the
// text printed on failure.
func TestCatalogMetadata(t *testing.T) {
	want, err := os.ReadFile("testdata/catalog.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := catalogText()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	first := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of text>"
	}
	t.Errorf("registry metadata differs from testdata/catalog.txt at line %d:\n got  %q\n want %q\nnew text:\n%s",
		i+1, first(g), first(w), got)
}
