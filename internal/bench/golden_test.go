package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickGridGolden renders every experiment's quick grid in-process,
// exactly as `acbench -quick -format csv` prints it, and compares the
// result byte for byte with testdata/acbench_quick.csv. The full grid is
// pinned the same way by testdata/acbench_full.csv, which CI compares with
// the output of `go run ./cmd/acbench -format csv`.
//
// The golden files record the reproduction as it stands, including the
// 0.1 MiB/s Fig. 5 small-transfer drift against results.txt. A change
// that is meant to move a figure regenerates both files and says why in
// its description:
//
//	go run ./cmd/acbench -quick -format csv > internal/bench/testdata/acbench_quick.csv
//	go run ./cmd/acbench -format csv > internal/bench/testdata/acbench_full.csv
func TestQuickGridGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "acbench_quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	gens := Figures()
	for _, id := range FigureOrder() {
		b.WriteString(gens[id](Options{Quick: true}).CSV())
	}
	got := b.String()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("quick grid differs from testdata/acbench_quick.csv at line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("quick grid has %d lines, testdata/acbench_quick.csv has %d", len(g), len(w))
}
