package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickGridGolden renders every experiment's quick grid in-process and
// compares it byte for byte with two golden files: testdata/acbench_quick.csv
// holds the grid exactly as `acbench -quick -format csv` prints it, and
// testdata/acbench_quick_notes.txt holds every Figure.Notes line, one per
// line, as testdata/notes.awk extracts them from the table output. The
// full grid is pinned the same way by testdata/acbench_full.csv and
// testdata/acbench_full_notes.txt, which CI compares with the output of
// acbench.
//
// The golden files record the reproduction as it stands, including the
// 0.1 MiB/s Fig. 5 small-transfer drift against results.txt. A change
// that is meant to move a figure regenerates the files and says why in
// its description:
//
//	go run ./cmd/acbench -quick -format csv > internal/bench/testdata/acbench_quick.csv
//	go run ./cmd/acbench -format csv > internal/bench/testdata/acbench_full.csv
//	go run ./cmd/acbench -quick | awk -f internal/bench/testdata/notes.awk > internal/bench/testdata/acbench_quick_notes.txt
//	go run ./cmd/acbench | awk -f internal/bench/testdata/notes.awk > internal/bench/testdata/acbench_full_notes.txt
func TestQuickGridGolden(t *testing.T) {
	var csv, notes strings.Builder
	gens := Figures()
	for _, id := range FigureOrder() {
		f := gens[id](Options{Quick: true})
		csv.WriteString(f.CSV())
		for _, n := range f.Notes {
			notes.WriteString(n)
			notes.WriteByte('\n')
		}
	}
	compareGolden(t, "acbench_quick.csv", csv.String())
	compareGolden(t, "acbench_quick_notes.txt", notes.String())
}

// compareGolden reports the first line where got differs from
// testdata/name.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("quick grid differs from testdata/%s at line %d:\n got: %q\nwant: %q", name, i+1, g[i], w[i])
			return
		}
	}
	t.Errorf("quick grid has %d lines, testdata/%s has %d", len(g), name, len(w))
}
