package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dynacc/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one round share Round; Parent is
// the id of the enclosing span (0 for a round's root).
type span struct {
	Name   string
	Round  int
	Parent int
	Track  int           // Chrome trace process: the simulation the span ran in
	Tid    int           // Chrome trace thread: the compute node issuing the call
	W0, W1 time.Duration // wall time since the tracer started
	V0, V1 sim.Time
}

// layer is the span name's prefix ("core.h2d" -> "core").
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; it records nothing while off. Span ids
// are 1-based indices into spans.
type tracer struct {
	on    bool
	wall  bool // the workload's timebase: wall (socket mode) or virtual
	t0    time.Time
	mu    sync.Mutex
	spans []span
	track int
}

func newTracer(wall bool) *tracer { return &tracer{wall: wall, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(p *sim.Proc, name string, round, parent, tid int) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := p.Now()
	t.spans = append(t.spans, span{Name: name, Round: round, Parent: parent, Track: t.track, Tid: tid,
		W0: time.Since(t.t0), V0: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(p *sim.Proc, id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.W1 = time.Since(t.t0)
	s.V1 = p.Now()
}

// dur is the span's length in the workload's timebase.
func (t *tracer) dur(s *span) time.Duration {
	if t.wall {
		return s.W1 - s.W0
	}
	return time.Duration(s.V1.Sub(s.V0))
}

func (t *tracer) bounds(s *span) (time.Duration, time.Duration) {
	if t.wall {
		return s.W0, s.W1
	}
	return time.Duration(s.V0), time.Duration(s.V1)
}

// durations returns the lengths of every span called name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.dur(&t.spans[i]))/1e3)
		}
	}
	return out
}

// selfTimes returns each layer's self time summed over all spans, and
// the summed length of the round roots. A span's self time is its length
// minus the part of it its children cover; the roots' own self time is
// the benchmark's ("bench"), so the layers' shares add up to the rounds.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	children := make([][]int, len(t.spans)+1)
	for i := range t.spans {
		children[t.spans[i].Parent] = append(children[t.spans[i].Parent], i+1)
	}
	self := map[string]time.Duration{}
	var rounds time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		lo, hi := t.bounds(s)
		covered := coveredLen(t, children[i+1], lo, hi)
		layer := s.layer()
		if s.Parent == 0 {
			layer = "bench"
			rounds += hi - lo
		}
		self[layer] += hi - lo - covered
	}
	return self, rounds
}

// coveredLen is the length of [lo,hi] covered by the union of the spans.
func coveredLen(t *tracer, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := t.bounds(&t.spans[id-1])
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// setSpanLayer fills the span-derived per-layer metrics.
func (o *outcome) setSpanLayer(t *tracer) {
	p50 := func(metric, span string, scale float64) {
		o.setLayer(metric, quantile(t.durations(span), 0.5)/scale)
	}
	p99 := func(metric, span string, scale float64) {
		o.setLayer(metric, quantile(t.durations(span), 0.99)/scale)
	}
	for _, op := range []string{"alloc", "memset", "h2d", "d2h", "launch", "free", "session_open", "session_close"} {
		p50("core."+op+"_p50_us", "core."+op, 1)
	}
	p99("core.h2d_p99_us", "core.h2d", 1)
	p99("core.d2h_p99_us", "core.d2h", 1)
	p50("arm.acquire_p50_us", "arm.acquire", 1)
	p99("arm.acquire_p99_us", "arm.acquire", 1)
	p50("arm.release_p50_us", "arm.release", 1)
	p50("magma.newdist_us_p50", "magma.newdist", 1)
	for _, op := range []string{"upload", "dgeqrf", "dpotrf", "download"} {
		p50("magma."+op+"_ms_p50", "magma."+op, 1e3)
	}
	p99("magma.dgeqrf_p99_ms", "magma.dgeqrf", 1e3)

	self, rounds := t.selfTimes()
	if rounds > 0 {
		for _, l := range []string{"bench", "arm", "core", "magma"} {
			o.setLayer("self."+l+"_frac", float64(self[l])/float64(rounds))
		}
	}
	o.setLayer("trace.spans", float64(len(t.spans)))
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Timestamps are in the workload's timebase; every event also
// carries both wall and virtual start/end.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tb := "virtual"
	if t.wall {
		tb = "wall"
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"timebase\":%q},\"traceEvents\":[\n", tb)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		lo, _ := t.bounds(s)
		ev := chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(lo) / 1e3, Dur: float64(t.dur(s)) / 1e3,
			Pid: s.Track, Tid: s.Tid,
			Args: map[string]any{
				"id": i + 1, "parent": s.Parent, "round": s.Round,
				"wall_start_us": float64(s.W0) / 1e3, "wall_end_us": float64(s.W1) / 1e3,
				"virt_start_us": float64(s.V0) / 1e3, "virt_end_us": float64(s.V1) / 1e3,
			},
		}
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
