package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The workloads read results.txt and BENCHMARK.json from the repository
// root, where run.sh runs them.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMatchesCode pins BENCHMARK.json to the metrics the code
// prints, name for name and unit for unit.
func TestDeclaredMatchesCode(t *testing.T) {
	d := loadDeclared(t)
	check := func(kind string, names map[string]string, decl []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(decl) != len(names) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code prints %d", kind, len(decl), len(names))
		}
		for _, m := range decl {
			if u, ok := names[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: declared unit %q, code unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end-to-end", e2eUnits, d.EndToEnd)
	check("per-layer", layerUnits, d.PerLayer)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
}

// TestSmoke runs every workload at the shortest run length, untraced and
// traced, and checks that every declared metric is printed with its unit,
// the outputs are correct, and the trace parses with every parent span
// present.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{Seed: 1, Seconds: 1, Trace: traced, TraceOut: filepath.Join(t.TempDir(), "trace.json")}
			out, err := workloads[w.Name](rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			res := out.result(traced)
			if !res.Correct {
				t.Errorf("%s trace=%v: incorrect: %v", w.Name, traced, out.problems)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				checkTrace(t, w.Name, rc.TraceOut)
			}
		}
	}
}

func checkTrace(t *testing.T, workload, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("%s: trace does not parse: %v", workload, err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("%s: empty trace", workload)
	}
	ids := map[float64]bool{}
	for _, ev := range tr.TraceEvents {
		ids[ev.Args["id"].(float64)] = true
	}
	for _, ev := range tr.TraceEvents {
		if p := ev.Args["parent"].(float64); p != 0 && !ids[p] {
			t.Errorf("%s: span %v (%s) has missing parent %v", workload, ev.Args["id"], ev.Name, p)
		}
		if ev.Dur < 0 {
			t.Errorf("%s: span %v (%s) ends before it starts", workload, ev.Args["id"], ev.Name)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dynacc/internal/sim.(*Simulation).next": "sim",
		"dynacc/internal/lapack.Dgeqrf":          "blas",
		"runtime.mallocgc":                       "runtime",
		"runtime.futex":                          "syscall",
		"syscall.Syscall6":                       "syscall",
		"internal/runtime/maps.(*Map).Get":       "runtime",
		"dynacc/internal/gpu.(*Device).Stats":    "other",
		"main.qrRound":                           "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

func TestWindowedQuantile(t *testing.T) {
	// One stalled window of ten does not move the median of the windows' maxima.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 300; i < 400; i++ {
		xs[i] = 1000
	}
	if got := windowedQuantile(xs, 100, 1); got != 99 {
		t.Errorf("windowed max = %v, want 99", got)
	}
	if got := quantile(xs, 1); got != 1000 {
		t.Errorf("max = %v, want 1000", got)
	}
	// Fewer samples than two windows: the plain quantile.
	if got := windowedQuantile(xs[:150], 100, 1); got != 99 {
		t.Errorf("short windowed max = %v, want 99", got)
	}
	// The remainder joins the last window.
	ys := append(make([]float64, 200), 5)
	if got := windowedQuantile(ys, 100, 1); got != 2.5 {
		t.Errorf("remainder = %v, want 2.5", got)
	}
}
