package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dynacc/internal/accel"
	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// tcp_mixed: socket mode over loopback in one OS process, one client in
// a closed loop alternating a QR round and a session round; one op is
// one of each.
const (
	tcpN        = 96
	tcpNB       = 16
	tcpQRGPUs   = 2
	tcpAccels   = 3
	tcpShare    = 2
	tcpPayload  = 64 << 10
	tcpPayloads = 4 // distinct seeded payloads, used round-robin
	tcpReplay   = 8 // ops replayed in sim mode for the virtual metrics
	stopTimeout = 10 * time.Second
)

func tcpConfig() cluster.Config {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	return cluster.Config{
		ComputeNodes:  1,
		Accelerators:  tcpAccels,
		ShareCapacity: tcpShare,
		Execute:       true,
		Registry:      reg,
	}
}

// tcpInputs are the seeded inputs of tcp_mixed and the host reference.
type tcpInputs struct {
	matrix, ref []float64
	payloads    [][]byte
}

func makeTCPInputs(seed int64) tcpInputs {
	rng := rand.New(rand.NewSource(seed))
	in := tcpInputs{matrix: make([]float64, tcpN*tcpN)}
	for i := range in.matrix {
		in.matrix[i] = rng.NormFloat64()
	}
	in.ref = append([]float64(nil), in.matrix...)
	lapack.Dgeqrf(tcpN, tcpN, in.ref, tcpN, make([]float64, tcpN), tcpNB)
	for i := 0; i < tcpPayloads; i++ {
		b := make([]byte, tcpPayload)
		rng.Read(b)
		in.payloads = append(in.payloads, b)
	}
	return in
}

// tcpDeploy is the two-member socket deployment: the client process
// (compute node 0) and the infrastructure process (daemons and ARM),
// joined by loopback TCP.
type tcpDeploy struct {
	client, infra *cluster.Member
	served        chan error
}

func deployTCP(cfg cluster.Config) (*tcpDeploy, error) {
	l := cluster.RankLayout(cfg)
	infraRanks := append(append([]int(nil), l.Daemons...), l.ARM...)
	topo, err := cluster.ListenTopology("ledger", [][]int{l.Compute, infraRanks})
	if err != nil {
		return nil, err
	}
	infra, err := cluster.StartProcess(cfg, topo, 1)
	if err != nil {
		for _, ln := range topo.Listeners {
			ln.Close()
		}
		return nil, err
	}
	d := &tcpDeploy{infra: infra, served: make(chan error, 1)}
	go func() { d.served <- infra.Serve() }()
	d.client, err = cluster.StartProcess(cfg, topo, 0)
	if err != nil {
		d.stopInfra()
		return nil, err
	}
	for _, m := range []*cluster.Member{d.client, d.infra} {
		if err := m.Transport().WaitReady(stopTimeout); err != nil {
			d.abort()
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	return d, nil
}

// abort stops both members without running the application.
func (d *tcpDeploy) abort() {
	d.client.Stop()
	d.client.Run() // returns at once after Stop; closes the client transport
	d.stopInfra()
}

// run drives the client member with main on compute node 0, then waits
// for the infrastructure to drain.
func (d *tcpDeploy) run(main func(p *sim.Proc, n *cluster.Node)) error {
	if err := d.client.Spawn(0, main); err != nil {
		d.abort()
		return err
	}
	err := d.client.Run()
	if serr := d.waitInfra(); err == nil {
		err = serr
	}
	return err
}

func (d *tcpDeploy) waitInfra() error {
	select {
	case err := <-d.served:
		return err
	case <-time.After(stopTimeout):
		d.infra.Stop()
		<-d.served
		return fmt.Errorf("infrastructure did not drain within %v", stopTimeout)
	}
}

func (d *tcpDeploy) stopInfra() {
	d.infra.Stop()
	<-d.served
}

// tcpPhase is one measured stretch of the closed loop.
type tcpPhase struct {
	ops   int
	latMS []float64
	cost  hostCost
}

func runTCPMixed(rc runConfig) (*outcome, error) {
	o := newOutcome()
	cfg := tcpConfig()
	tr := newTracer(true)
	var tot simTotals
	var phases []tcpPhase
	var mainErr error
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		d, err := deployTCP(cfg)
		if err != nil {
			return nil, err
		}
		in := makeTCPInputs(rc.Seed)
		var first time.Duration
		last := rep == setupReps-1
		err = d.run(func(p *sim.Proc, n *cluster.Node) {
			first = time.Since(t0)
			if last {
				phases, mainErr = tcpLoop(p, n, tr, in, rc, o, &tot)
			}
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, first.Seconds())
		if last {
			if mainErr != nil {
				return nil, mainErr
			}
			tcpCounters(o, d, phases, &tot)
		}
	}
	o.setE2E("setup_s", median(setups))
	o.samples["setup"] = len(setups)

	a := phases[0]
	o.setHostE2E(a.cost, a.ops, a.latMS)
	if rc.Trace {
		b := phases[1]
		if err := o.setTraced(tr, a.cost, b.cost, a.ops, b.ops, rc.TraceOut); err != nil {
			return nil, err
		}
	}
	if err := tcpVirtual(o, makeTCPInputs(rc.Seed)); err != nil {
		return nil, err
	}
	if err := paperGuard(o); err != nil {
		return nil, err
	}
	return o, nil
}

// tcpLoop is compute node 0's main: the untraced phase, and with tracing
// a traced phase under a CPU profile.
func tcpLoop(p *sim.Proc, n *cluster.Node, tr *tracer, in tcpInputs, rc runConfig, o *outcome, tot *simTotals) ([]tcpPhase, error) {
	phases := []tcpPhase{{}, {}}
	round := 0
	costs, err := runPhases(rc, tr, o, func(i int) error {
		ph := &phases[i]
		t0 := time.Now()
		err := mixedOp(p, n, tr, round, in)
		ph.latMS = append(ph.latMS, float64(time.Since(t0))/1e6)
		ph.ops++
		o.attempted++
		if err != nil {
			o.failed++
			o.problem("op %d: %v", o.attempted, err)
		}
		round += 2
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range costs {
		phases[i].cost = c
	}
	return phases[:len(costs)], tot.addARM(p, n.ARM)
}

// tcpCounters fills the counter-derived per-layer metrics of a finished
// socket run. The counters cover the whole run (both phases and the
// teardown) and are divided by all ops of the run.
func tcpCounters(o *outcome, d *tcpDeploy, phases []tcpPhase, tot *simTotals) {
	ops := 0
	for _, ph := range phases {
		ops += ph.ops
	}
	if ops == 0 {
		return
	}
	icl := d.infra.Cluster
	elapsed := sim.Duration(icl.Sim.Now()).Seconds()
	for _, dm := range icl.Daemons {
		if dm == nil {
			continue
		}
		st := dm.Stats()
		tot.requests += st.Requests
		if st.StagingPeak > tot.stagingPeak {
			tot.stagingPeak = st.StagingPeak
		}
		gs := dm.Device().Stats()
		tot.launches += gs.Launches
		tot.gpuBusyS += gs.Busy.Seconds()
		tot.gpuAvailS += elapsed
	}
	for _, m := range []*cluster.Member{d.client, d.infra} {
		w := m.Cluster.World
		for r := 0; r < w.Size(); r++ {
			t := w.Traffic(r)
			tot.msgs += t.MsgsSent
			tot.bytes += t.BytesSent
		}
	}
	tot.virtS = sim.Duration(d.client.Cluster.Sim.Now()).Seconds()
	var wallS float64
	for _, ph := range phases {
		wallS += ph.cost.wallS
	}
	tot.setLayer(o, ops, wallS)

	var frames, fbytes, resent, reconnects, hsFail int64
	for _, m := range []*cluster.Member{d.client, d.infra} {
		st := m.Transport().Stats()
		frames += st.FramesSent
		fbytes += st.BytesSent
		resent += st.FramesResent
		reconnects += st.Reconnects
		hsFail += st.HandshakeFailures
	}
	o.setLayer("nettrans.frames_per_op", float64(frames)/float64(ops))
	if frames > 0 {
		o.setLayer("nettrans.bytes_per_frame", float64(fbytes)/float64(frames))
	}
	o.setLayer("nettrans.frames_resent", float64(resent))
	o.setLayer("nettrans.reconnects", float64(reconnects))
	o.setLayer("nettrans.handshake_failures", float64(hsFail))
	if hsFail > 0 {
		o.problem("%d handshake failures", hsFail)
	}
}

// mixedOp is one op of tcp_mixed: a QR round (round) and a session round
// (round+1). Timing the pair, the loop's repeating unit, keeps the median
// off the gap between the two rounds' latencies.
func mixedOp(p *sim.Proc, n *cluster.Node, tr *tracer, round int, in tcpInputs) error {
	if err := qrRound(p, n, tr, round, in); err != nil {
		return err
	}
	return sessionRound(p, n, tr, round+1, in)
}

// qrRound acquires GPUs, factors the seeded matrix with the hybrid QR,
// checks the factors against host LAPACK and releases the GPUs.
func qrRound(p *sim.Proc, n *cluster.Node, tr *tracer, round int, in tcpInputs) error {
	root := tr.begin(p, "round.qr", round, 0, 0)
	defer tr.end(p, root)
	sp := tr.begin(p, "arm.acquire", round, root, 0)
	handles, err := n.ARM.Acquire(p, tcpQRGPUs, true)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	defer func() {
		sp := tr.begin(p, "arm.release", round, root, 0)
		n.ARM.Release(p, handles)
		tr.end(p, sp)
	}()
	devs := make([]magma.Device, 0, len(handles))
	for _, h := range handles {
		devs = append(devs, accel.Remote(n.Attach(h)))
	}
	sp = tr.begin(p, "magma.newdist", round, root, 0)
	dist, err := magma.NewDist(p, devs, tcpN, tcpN, tcpNB, true)
	tr.end(p, sp)
	if err != nil {
		return err
	}
	defer func() {
		sp := tr.begin(p, "magma.free", round, root, 0)
		dist.Free(p)
		tr.end(p, sp)
	}()
	sp = tr.begin(p, "magma.upload", round, root, 0)
	err = dist.Upload(p, in.matrix)
	tr.end(p, sp)
	if err != nil {
		return err
	}
	cfg := magma.DefaultConfig()
	cfg.NB = tcpNB
	sp = tr.begin(p, "magma.dgeqrf", round, root, 0)
	err = magma.Dgeqrf(p, dist, make([]float64, tcpN), cfg)
	tr.end(p, sp)
	if err != nil {
		return err
	}
	got := make([]float64, tcpN*tcpN)
	sp = tr.begin(p, "magma.download", round, root, 0)
	err = dist.Download(p, got)
	tr.end(p, sp)
	if err != nil {
		return err
	}
	sp = tr.begin(p, "bench.verify", round, root, 0)
	defer tr.end(p, sp)
	for i := range got {
		if d := math.Abs(got[i] - in.ref[i]); d > 1e-8 {
			return fmt.Errorf("QR differs from LAPACK at %d by %.2e", i, d)
		}
	}
	return nil
}

// sessionRound takes a shared lease, opens two sessions on it, and runs
// alloc/memset/H2D/D2H/verify/free in each.
func sessionRound(p *sim.Proc, n *cluster.Node, tr *tracer, round int, in tcpInputs) error {
	root := tr.begin(p, "round.session", round, 0, 0)
	defer tr.end(p, root)
	sp := tr.begin(p, "arm.acquire", round, root, 0)
	handles, err := n.ARM.AcquireShared(p, 1, true)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("acquire shared: %w", err)
	}
	defer func() {
		sp := tr.begin(p, "arm.release", round, root, 0)
		n.ARM.Release(p, handles)
		tr.end(p, sp)
	}()
	payload := in.payloads[(round/2)%len(in.payloads)]
	back := make([]byte, tcpPayload)
	for t := 0; t < 2; t++ {
		if err := sessionTenant(p, n, tr, round, root, handles[0], payload, back); err != nil {
			return fmt.Errorf("tenant %d: %w", t, err)
		}
	}
	return nil
}

func sessionTenant(p *sim.Proc, n *cluster.Node, tr *tracer, round, root int, h arm.Handle, payload, back []byte) error {
	sp := tr.begin(p, "core.session_open", round, root, 0)
	ac, err := n.AttachSession(p, h)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	defer func() {
		sp := tr.begin(p, "core.session_close", round, root, 0)
		ac.CloseSession(p)
		tr.end(p, sp)
	}()
	return tenantCopies(p, ac, tr, round, root, payload, back)
}

// tenantCopies is one tenant's alloc/memset/H2D/D2H/verify/free cycle.
func tenantCopies(p *sim.Proc, ac *core.Accel, tr *tracer, round, root int, payload, back []byte) error {
	sz := len(payload)
	sp := tr.begin(p, "core.alloc", round, root, 0)
	ptr, err := ac.MemAlloc(p, sz)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("alloc: %w", err)
	}
	sp = tr.begin(p, "core.memset", round, root, 0)
	err = ac.Memset(p, ptr, 0, sz, 0)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("memset: %w", err)
	}
	sp = tr.begin(p, "core.h2d", round, root, 0)
	err = ac.MemcpyH2D(p, ptr, 0, payload, sz)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("h2d: %w", err)
	}
	sp = tr.begin(p, "core.d2h", round, root, 0)
	err = ac.MemcpyD2H(p, back, ptr, 0, sz)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("d2h: %w", err)
	}
	sp = tr.begin(p, "bench.verify", round, root, 0)
	same := bytes.Equal(back, payload)
	tr.end(p, sp)
	if !same {
		return fmt.Errorf("session bytes did not round-trip")
	}
	sp = tr.begin(p, "core.free", round, root, 0)
	err = ac.MemFree(p, ptr)
	tr.end(p, sp)
	if err != nil {
		return fmt.Errorf("free: %w", err)
	}
	return nil
}

// tcpVirtual replays tcp_mixed's round mix on the in-process simulated
// fabric, where virtual time is the modeled hardware's and deterministic
// for a seed, and reports the virt_* metrics of the mix from it.
func tcpVirtual(o *outcome, in tcpInputs) error {
	cl, err := cluster.New(tcpConfig())
	if err != nil {
		return err
	}
	tr := newTracer(false)
	tr.on = true
	var ops []float64
	var t0, t1 sim.Time
	var loopErr error
	cl.Spawn(0, func(p *sim.Proc, n *cluster.Node) {
		t0 = p.Now()
		for r := 0; r < tcpReplay; r++ {
			s := p.Now()
			if loopErr = mixedOp(p, n, tr, 2*r, in); loopErr != nil {
				return
			}
			ops = append(ops, float64(p.Now().Sub(s))/1e3)
		}
		t1 = p.Now()
	})
	if _, err := cl.Run(); err != nil {
		return err
	}
	if loopErr != nil {
		o.problem("sim-mode replay: %v", loopErr)
		return nil
	}
	o.setE2E("virt_makespan_ms", float64(t1.Sub(t0))/1e6)
	o.setE2E("virt_op_p50_us", median(ops))
	o.setE2E("virt_op_p99_us", quantile(ops, 0.99))
	o.samples["virt_op_us"] = len(ops)
	if h2d := median(tr.durations("core.h2d")); h2d > 0 {
		o.setE2E("virt_h2d_mibps", float64(tcpPayload)/(1<<20)/(h2d/1e6))
	}
	return nil
}
