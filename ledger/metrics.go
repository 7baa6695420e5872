package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Units of every metric the benchmark prints. Timebases: "s", "ms" and
// "us" are wall time; "virt-*" is simulated time; "span-*" is the
// workload's span timebase (wall for tcp_mixed, virtual for the sim
// workloads). The names are fixed: later changes are judged by them.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"ops_per_s":        "1/s",
	"op_p50_ms":        "ms",
	"op_p99_ms":        "ms",
	"cpu_ms_per_op":    "ms",
	"peak_rss_mb":      "MiB",
	"ok_frac":          "fraction",
	"virt_makespan_ms": "virt-ms",
	"virt_op_p50_us":   "virt-us",
	"virt_op_p99_us":   "virt-us",
	"virt_qr_gflops":   "GFlop/s",
	"virt_chol_gflops": "GFlop/s",
	"virt_h2d_mibps":   "MiB/s",
}

var layerUnits = map[string]string{
	"core.alloc_p50_us":           "span-us",
	"core.memset_p50_us":          "span-us",
	"core.h2d_p50_us":             "span-us",
	"core.d2h_p50_us":             "span-us",
	"core.launch_p50_us":          "span-us",
	"core.free_p50_us":            "span-us",
	"core.session_open_p50_us":    "span-us",
	"core.session_close_p50_us":   "span-us",
	"core.h2d_p99_us":             "span-us",
	"core.d2h_p99_us":             "span-us",
	"core.daemon_requests_per_op": "count/op",
	"core.staging_peak_kib":       "KiB",
	"arm.acquire_p50_us":          "span-us",
	"arm.acquire_p99_us":          "span-us",
	"arm.release_p50_us":          "span-us",
	"arm.wait_s":                  "virt-s",
	"arm.busy_frac":               "fraction",
	"arm.grants":                  "count/op",
	"magma.newdist_us_p50":        "span-us",
	"magma.upload_ms_p50":         "span-ms",
	"magma.dgeqrf_ms_p50":         "span-ms",
	"magma.dpotrf_ms_p50":         "span-ms",
	"magma.download_ms_p50":       "span-ms",
	"magma.dgeqrf_p99_ms":         "span-ms",
	"minimpi.msgs_per_op":         "count/op",
	"minimpi.bytes_per_op":        "B/op",
	"minimpi.nic_busy_frac":       "fraction",
	"nettrans.frames_per_op":      "count/op",
	"nettrans.bytes_per_frame":    "B",
	"nettrans.frames_resent":      "count",
	"nettrans.reconnects":         "count",
	"nettrans.handshake_failures": "count",
	"gpu.busy_frac":               "fraction",
	"gpu.launches_per_op":         "count/op",
	"sim.host_ms_per_virt_s":      "ms/virt-s",
	"go.allocs_per_op":            "count/op",
	"go.gc_cpu_frac":              "fraction",
	"go.sched_p99_us":             "us",
	"proc.cpu_util":               "cores",
	"proc.sys_frac":               "fraction",
	"host.sim_frac":               "fraction",
	"host.minimpi_frac":           "fraction",
	"host.nettrans_frac":          "fraction",
	"host.wire_frac":              "fraction",
	"host.core_frac":              "fraction",
	"host.arm_frac":               "fraction",
	"host.magma_frac":             "fraction",
	"host.blas_frac":              "fraction",
	"host.runtime_frac":           "fraction",
	"host.syscall_frac":           "fraction",
	"host.other_frac":             "fraction",
	"self.bench_frac":             "fraction",
	"self.arm_frac":               "fraction",
	"self.core_frac":              "fraction",
	"self.magma_frac":             "fraction",
	"trace.overhead_frac":         "fraction",
	"trace.spans":                 "count",
}

// outcome collects one workload run's measurements and verdicts.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int // sample counts behind the percentiles
	attempted int
	failed    int
	problems  []string // failed correctness checks (the first maxProblems)
	nProblems int
	notes     []string // reported as is, never a failure
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) setE2E(name string, v float64) {
	if _, ok := e2eUnits[name]; !ok {
		panic("ledger: undeclared end-to-end metric " + name)
	}
	o.e2e[name] = v
}

func (o *outcome) setLayer(name string, v float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("ledger: undeclared per-layer metric " + name)
	}
	o.layer[name] = v
}

// maxProblems bounds the failures kept for the report; a run that fails
// every round would otherwise keep thousands of messages.
const maxProblems = 20

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.nProblems++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result renders the output line: the end-to-end metrics, or with trace
// the per-layer ones. A per-layer metric of a layer the workload never
// calls reads 0; an end-to-end metric a workload failed to measure is a
// correctness failure.
func (o *outcome) result(trace bool) result {
	r := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if r.Attempted < 1 {
		r.Attempted = 1
		o.problem("no operation was attempted")
	}
	if trace {
		for name, unit := range layerUnits {
			r.Metrics[name] = metric{Value: finite(o.layer[name]), Unit: unit}
		}
	} else {
		for name, unit := range e2eUnits {
			v, ok := o.e2e[name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				o.problem("end-to-end metric %s not measured (%v)", name, v)
				v = 0
			}
			r.Metrics[name] = metric{Value: v, Unit: unit}
		}
	}
	r.Correct = len(o.problems) == 0 && o.failed == 0
	return r
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// summarize prints a human-readable table of the result to w.
func (o *outcome) summarize(w io.Writer, workload string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "ledger %s: %d attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(o.samples))
	for k := range o.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples %-22s %d\n", k, o.samples[k])
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
	if o.nProblems > len(o.problems) {
		fmt.Fprintf(w, "  FAIL: ... %d more\n", o.nProblems-len(o.problems))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99Window is how many consecutive op latencies windowedQuantile takes
// the tail of at a time.
const p99Window = 100

// windowedQuantile cuts xs, in the order measured, into windows of w
// samples (the remainder joins the last window) and returns the median of
// the windows' q-quantiles; with fewer than w samples it is quantile(xs, q).
// A host stall of a few hundred milliseconds lifts the tail of the one or
// two windows it falls in, not the median, while a tail every window shares,
// as GC cycles, still shows in full.
func windowedQuantile(xs []float64, w int, q float64) float64 {
	n := len(xs) / w
	if n < 2 {
		return quantile(xs, q)
	}
	tails := make([]float64, n)
	for i := range tails {
		end := (i + 1) * w
		if i == n-1 {
			end = len(xs)
		}
		tails[i] = quantile(xs[i*w:end], q)
	}
	return median(tails)
}

// hostSnap is a point-in-time reading of the process's host costs.
type hostSnap struct {
	wall         time.Time
	utime, stime time.Duration
	allocs       uint64
	gcCPU        float64
	sched        *metrics.Float64Histogram
}

var hostMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// runPhases drives a workload's closed loop and returns the host cost of
// each measured phase: one phase of rc.Seconds, or with tracing an
// untraced and a traced half, the traced one under a CPU profile whose
// module shares go to o. step runs one op (or round) of phase i; every
// phase runs at least one. Each phase starts from a collected heap.
func runPhases(rc runConfig, tr *tracer, o *outcome, step func(i int) error) ([]hostCost, error) {
	lengths := []float64{rc.Seconds}
	if rc.Trace {
		lengths = []float64{rc.Seconds / 2, rc.Seconds / 2}
	}
	var costs []hostCost
	for i, secs := range lengths {
		var prof *cpuProfile
		if i == 1 {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return nil, err
			}
		}
		tr.on = i == 1
		runtime.GC()
		h0 := snapHost()
		end := h0.wall.Add(time.Duration(secs * float64(time.Second)))
		var err error
		for first := true; err == nil && (first || time.Now().Before(end)); first = false {
			err = step(i)
		}
		costs = append(costs, h0.until(snapHost()))
		tr.on = false
		if prof != nil {
			byModule, perr := prof.stop()
			if err == nil {
				err = perr
			}
			o.setHostShares(byModule)
		}
		if err != nil {
			return nil, err
		}
	}
	return costs, nil
}

// setTraced fills the per-layer metrics of a traced run from its untraced
// half a and traced half b, and writes the trace.
func (o *outcome) setTraced(tr *tracer, a, b hostCost, aOps, bOps int, traceOut string) error {
	o.setHostLayer(a, aOps)
	if aOps > 0 && bOps > 0 {
		o.setLayer("trace.overhead_frac", (b.wallS/float64(bOps))/(a.wallS/float64(aOps))-1)
	}
	o.setSpanLayer(tr)
	return tr.writeChrome(traceOut)
}

func snapHost() hostSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := hostSnap{
		wall:  time.Now(),
		utime: time.Duration(ru.Utime.Nano()),
		stime: time.Duration(ru.Stime.Nano()),
	}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocs = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = samples[2].Value.Float64Histogram()
	}
	return s
}

// hostCost is the host work done between two snapshots.
type hostCost struct {
	wallS, cpuS, sysS, gcS float64
	allocs                 uint64
	schedP99us             float64
}

func (a hostSnap) until(b hostSnap) hostCost {
	c := hostCost{
		wallS:  b.wall.Sub(a.wall).Seconds(),
		cpuS:   (b.utime + b.stime - a.utime - a.stime).Seconds(),
		sysS:   (b.stime - a.stime).Seconds(),
		gcS:    b.gcCPU - a.gcCPU,
		allocs: b.allocs - a.allocs,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		c.schedP99us = histQuantile(a.sched, b.sched, 0.99) * 1e6
	}
	return c
}

// histQuantile returns the q-quantile of the observations b recorded
// after a, as the upper edge of the bucket holding it.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// setHostLayer fills the go.* and proc.* per-layer metrics.
func (o *outcome) setHostLayer(c hostCost, ops int) {
	if ops > 0 {
		o.setLayer("go.allocs_per_op", float64(c.allocs)/float64(ops))
	}
	if c.cpuS > 0 {
		o.setLayer("go.gc_cpu_frac", c.gcS/c.cpuS)
		o.setLayer("proc.sys_frac", c.sysS/c.cpuS)
	}
	o.setLayer("go.sched_p99_us", c.schedP99us)
	if c.wallS > 0 {
		o.setLayer("proc.cpu_util", c.cpuS/c.wallS)
	}
}

// setHostE2E fills the wall-time end-to-end metrics shared by every
// workload from the measured phase's host cost and op latencies (ms).
func (o *outcome) setHostE2E(c hostCost, ops int, latMS []float64) {
	if c.wallS > 0 {
		o.setE2E("ops_per_s", float64(ops)/c.wallS)
	}
	if ops > 0 {
		o.setE2E("cpu_ms_per_op", c.cpuS*1e3/float64(ops))
	}
	o.setE2E("op_p50_ms", median(latMS))
	o.setE2E("op_p99_ms", windowedQuantile(latMS, p99Window, 0.99))
	o.samples["op_ms"] = len(latMS)
	o.setE2E("peak_rss_mb", peakRSSMiB())
	if o.attempted > 0 {
		o.setE2E("ok_frac", float64(o.attempted-o.failed)/float64(o.attempted))
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
