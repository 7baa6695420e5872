// Command ledger is dynacc's benchmark: it runs one named workload for a
// fixed wall-clock length, checks the program's outputs, and prints the
// workload's metrics as one JSON object on the last line of standard
// output.
//
//	ledger --workload tcp_mixed --seed 1 --seconds 10 --trace 0
//	ledger --workload sim_paper --seed 7 --seconds 10 --trace 1 --trace-out t.json
//	ledger --compare old.jsonl new.jsonl
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload twice (untraced, then traced under a CPU profile) and
// prints the per-layer metrics. --record appends every result to a JSON
// lines file, the input of --compare. See README.md for the metric
// definitions.
//
// The benchmark drives dynacc only through its public functions and
// changes nothing under internal/ or cmd/. The exit status is nonzero
// when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a workload sets up per run; setup_s is the
// median, which a single set-up of a few milliseconds is too noisy for.
const setupReps = 9

// runConfig is what every workload receives.
type runConfig struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceOut string // Chrome trace-event file written by traced runs
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"tcp_mixed": runTCPMixed,
	"sim_fleet": runSimFleet,
	"sim_paper": runSimPaper,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: tcp_mixed, sim_fleet or sim_paper")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured wall-clock seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace-event JSON of a traced run (default .bench_build/ledger-trace-<workload>.json)")
		record   = flag.String("record", "", "append the result to this JSON lines file")
		compare  = flag.Bool("compare", false, "compare two recorded result sets: ledger --compare OLD NEW")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two recorded result files")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("compare: %v", err)
		}
		if worse {
			os.Exit(2)
		}
		return
	}

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	// Every workload runs on one P. The simulation engine is
	// single-threaded, and the socket workload's two members fit one core;
	// with a second P the concurrent GC and the members' goroutines made
	// the host costs swing about three times as much from run to run on a
	// 2-vCPU VM with steal time.
	runtime.GOMAXPROCS(1)
	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TraceOut: *traceOut}
	if rc.Trace && rc.TraceOut == "" {
		rc.TraceOut = fmt.Sprintf(".bench_build/ledger-trace-%s.json", *name)
	}
	out, err := run(rc)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	res := out.result(rc.Trace)
	out.summarize(os.Stderr, *name, res)
	if *record != "" {
		if err := appendRecord(*record, *name, *seed, rc.Trace, res); err != nil {
			fatalf("record: %v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledger: "+format+"\n", args...)
	os.Exit(1)
}
