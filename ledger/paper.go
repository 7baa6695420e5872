package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"dynacc/internal/accel"
	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/magma"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// resultsFile holds the paper figures `acbench` reproduces; the sim
// workloads check their virtual results against it.
const resultsFile = "results.txt"

// paperValue reads one point of a figure table in results.txt: the row
// whose first column is x, in the named series' column.
func paperValue(fig, series string, x float64) (float64, error) {
	f, err := os.Open(resultsFile)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	var cols []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# "+fig+":"):
			in = true
			cols = nil
		case !in || strings.HasPrefix(line, "#"):
		case line == "":
			in = false
		case cols == nil:
			cols = strings.Fields(line)
		default:
			fields := strings.Fields(line)
			if len(fields) != len(cols) {
				continue
			}
			if v, err := strconv.ParseFloat(fields[0], 64); err != nil || v != x {
				continue
			}
			for i, c := range cols {
				if c == series {
					return strconv.ParseFloat(fields[i], 64)
				}
			}
			return 0, fmt.Errorf("%s: %s has no series %q", resultsFile, fig, series)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s point at %v", resultsFile, fig, x)
}

// samePrinted reports whether two figures print identically at one
// decimal, the precision of results.txt.
func samePrinted(a, b float64) bool {
	return strconv.FormatFloat(a, 'f', 1, 64) == strconv.FormatFloat(b, 'f', 1, 64)
}

// factorization names one hybrid routine under test.
type factorization struct {
	span  string // span name of the factorization call
	fig   string // results.txt figure
	flops func(n int) float64
}

var (
	qrFactor   = factorization{"magma.dgeqrf", "fig9", func(n int) float64 { return magma.QRFlops(n, n) }}
	cholFactor = factorization{"magma.dpotrf", "fig10", magma.CholeskyFlops}
)

// factorRun is one factorization on network-attached GPUs.
type factorRun struct {
	virt     sim.Duration // the factorization call alone (the figures' timer)
	makespan sim.Duration // the whole job: acquire to release
}

// runFactor builds a cluster with one compute node and gpus
// network-attached GPUs and runs one hybrid factorization of an n×n
// matrix, in model mode (a == nil) or execute mode (a holds the
// column-major matrix and receives the factors). Spans go to tr under
// round; the cluster's counters go to tot.
func runFactor(tr *tracer, tot *simTotals, round int, f factorization, gpus, n int, a []float64, nb int) (factorRun, error) {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: gpus, Registry: reg, Execute: a != nil})
	if err != nil {
		return factorRun{}, err
	}
	cfg := magma.DefaultConfig()
	if nb > 0 {
		cfg.NB = nb
	}
	var run factorRun
	var jobErr error
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		t0 := p.Now()
		root := tr.begin(p, "round."+strings.TrimPrefix(f.span, "magma."), round, 0, 0)
		defer tr.end(p, root)
		jobErr = func() error {
			sp := tr.begin(p, "arm.acquire", round, root, 0)
			handles, err := node.ARM.Acquire(p, gpus, false)
			tr.end(p, sp)
			if err != nil {
				return fmt.Errorf("acquire: %w", err)
			}
			devs := make([]accel.Device, 0, gpus)
			for _, h := range handles {
				devs = append(devs, accel.Remote(node.Attach(h)))
			}
			sp = tr.begin(p, "magma.newdist", round, root, 0)
			dist, err := magma.NewDist(p, devs, n, n, cfg.NB, a != nil)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, "magma.upload", round, root, 0)
			err = dist.Upload(p, a)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, f.span, round, root, 0)
			start := p.Now()
			if f.span == qrFactor.span {
				var tau []float64
				if a != nil {
					tau = make([]float64, n)
				}
				err = magma.Dgeqrf(p, dist, tau, cfg)
			} else {
				err = magma.Dpotrf(p, dist, cfg)
			}
			run.virt = p.Now().Sub(start)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, "magma.download", round, root, 0)
			err = dist.Download(p, a)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, "magma.free", round, root, 0)
			dist.Free(p)
			tr.end(p, sp)
			sp = tr.begin(p, "arm.release", round, root, 0)
			err = node.ARM.Release(p, handles)
			tr.end(p, sp)
			if err != nil {
				return fmt.Errorf("release: %w", err)
			}
			run.makespan = p.Now().Sub(t0)
			return tot.addARM(p, node.ARM)
		}()
	})
	if _, err := cl.Run(); err != nil {
		return run, err
	}
	if jobErr != nil {
		return run, jobErr
	}
	tot.addCluster(cl)
	return run, nil
}

// runH2D times one n-byte host-to-device copy to a network-attached GPU
// with the default (paper adaptive) protocol, in model mode.
func runH2D(tr *tracer, tot *simTotals, round, n int) (sim.Duration, error) {
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 1, Registry: gpu.NewRegistry()})
	if err != nil {
		return 0, err
	}
	var virt sim.Duration
	var jobErr error
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		root := tr.begin(p, "round.h2d", round, 0, 0)
		defer tr.end(p, root)
		jobErr = func() error {
			sp := tr.begin(p, "arm.acquire", round, root, 0)
			handles, err := node.ARM.Acquire(p, 1, false)
			tr.end(p, sp)
			if err != nil {
				return fmt.Errorf("acquire: %w", err)
			}
			ac := node.Attach(handles[0])
			sp = tr.begin(p, "core.alloc", round, root, 0)
			ptr, err := ac.MemAlloc(p, n)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, "core.h2d", round, root, 0)
			start := p.Now()
			err = ac.MemcpyH2D(p, ptr, 0, nil, n)
			virt = p.Now().Sub(start)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, "core.free", round, root, 0)
			err = ac.MemFree(p, ptr)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			sp = tr.begin(p, "arm.release", round, root, 0)
			err = node.ARM.Release(p, handles)
			tr.end(p, sp)
			if err != nil {
				return err
			}
			return tot.addARM(p, node.ARM)
		}()
	})
	if _, err := cl.Run(); err != nil {
		return 0, err
	}
	if jobErr != nil {
		return 0, jobErr
	}
	tot.addCluster(cl)
	return virt, nil
}

// gflops converts a factorization's virtual time to GFlop/s at size n.
func (f factorization) gflops(n int, t sim.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return f.flops(n) / t.Seconds() / 1e9
}

// checkPaperFactor compares a measured GFlop/s with the figure's
// 3-network-GPU row at n.
func checkPaperFactor(o *outcome, f factorization, n int, got float64) {
	want, err := paperValue(f.fig, "3-network-GPUs", float64(n))
	if err != nil {
		o.problem("%s reference: %v", f.fig, err)
		return
	}
	if !samePrinted(got, want) {
		o.problem("%s at N=%d on 3 network GPUs: %.1f GFlop/s, %s says %.1f", f.fig, n, got, resultsFile, want)
	}
}

// paperGuard runs the N=1024 points of Figs. 9 and 10 on 3 network GPUs
// in model mode, checks them against results.txt and reports them as
// virt_qr_gflops/virt_chol_gflops: the virtual-time guard of the
// workloads whose own ops run no factorization.
func paperGuard(o *outcome) error {
	const n = 1024
	var tot simTotals
	for _, f := range []factorization{qrFactor, cholFactor} {
		run, err := runFactor(nil, &tot, 0, f, 3, n, nil, 0)
		if err != nil {
			return fmt.Errorf("%s guard: %w", f.fig, err)
		}
		g := f.gflops(n, run.virt)
		checkPaperFactor(o, f, n, g)
		if f.span == qrFactor.span {
			o.setE2E("virt_qr_gflops", g)
		} else {
			o.setE2E("virt_chol_gflops", g)
		}
	}
	return nil
}

// checkExecFactor runs a factorization in execute mode on 3 network GPUs
// and compares the factors with host LAPACK: all of them for QR, the
// lower triangle for Cholesky (the upper holds trailing-update junk).
func checkExecFactor(o *outcome, f factorization, n, nb int, rng *rand.Rand) error {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	if f.span == cholFactor.span {
		// A·Aᵀ + n·I is symmetric positive definite.
		spd := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i+k*n] * a[j+k*n]
				}
				if i == j {
					s += float64(n)
				}
				spd[i+j*n] = s
			}
		}
		a = spd
	}
	ref := append([]float64(nil), a...)
	if f.span == qrFactor.span {
		lapack.Dgeqrf(n, n, ref, n, make([]float64, n), nb)
	} else if err := lapack.Dpotrf(n, ref, n, nb); err != nil {
		return fmt.Errorf("reference Cholesky: %w", err)
	}
	var tot simTotals
	if _, err := runFactor(nil, &tot, 0, f, 3, n, a, nb); err != nil {
		return fmt.Errorf("execute-mode %s: %w", f.span, err)
	}
	scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
	for j := 0; j < n; j++ {
		i0 := 0
		if f.span == cholFactor.span {
			i0 = j
		}
		for i := i0; i < n; i++ {
			if d := math.Abs(a[i+j*n] - ref[i+j*n]); d > 1e-8*math.Max(1, scale) {
				o.problem("execute-mode %s on 3 network GPUs differs from LAPACK at (%d,%d) by %.2e", f.span, i, j, d)
				return nil
			}
		}
	}
	return nil
}

// simTotals accumulates layer counters over the clusters of one phase.
type simTotals struct {
	requests    int64
	stagingPeak int64
	launches    int64
	gpuBusyS    float64 // device-busy virtual seconds
	gpuAvailS   float64 // devices × elapsed virtual seconds
	msgs, bytes int64
	nicBusyS    float64
	nicAvailS   float64
	virtS       float64 // simulated seconds
	armWaitS    float64
	armGrants   int
	armBusyS    float64
	armAvailS   float64
}

// addCluster adds a finished cluster's device, daemon and network
// counters (cluster.Report and minimpi traffic).
func (t *simTotals) addCluster(cl *cluster.Cluster) {
	if t == nil {
		return
	}
	rep := cl.Report()
	el := rep.Elapsed.Seconds()
	t.virtS += el
	for _, a := range rep.Accels {
		t.requests += a.Requests
		t.launches += a.Launches
		if a.StagingPeak > t.stagingPeak {
			t.stagingPeak = a.StagingPeak
		}
		t.gpuBusyS += a.GPUBusy * el
		t.gpuAvailS += el
	}
	for _, n := range rep.Nodes {
		t.nicBusyS += math.Max(n.TxBusy, n.RxBusy) * el
		t.nicAvailS += el
	}
	for r := 0; r < cl.World.Size(); r++ {
		tr := cl.World.Traffic(r)
		t.msgs += tr.MsgsSent
		t.bytes += tr.BytesSent
	}
}

// armBooks is the part of a resource-manager client addARM reads.
type armBooks interface {
	StatsEx(p *sim.Proc) (arm.PoolStats, error)
}

// addARM reads the resource manager's books through a node's client.
func (t *simTotals) addARM(p *sim.Proc, c armBooks) error {
	if t == nil {
		return nil
	}
	ps, err := c.StatsEx(p)
	if err != nil {
		return fmt.Errorf("arm stats: %w", err)
	}
	t.armWaitS += ps.WaitSeconds
	t.armGrants += ps.Acquires
	t.armBusyS += ps.BusySeconds
	t.armAvailS += float64(ps.Total) * sim.Duration(p.Now()).Seconds()
	return nil
}

// setLayer fills the counter-derived per-layer metrics for ops ops.
func (t *simTotals) setLayer(o *outcome, ops int, wallS float64) {
	if ops <= 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(ops) }
	o.setLayer("core.daemon_requests_per_op", per(float64(t.requests)))
	o.setLayer("core.staging_peak_kib", float64(t.stagingPeak)/1024)
	o.setLayer("gpu.launches_per_op", per(float64(t.launches)))
	if t.gpuAvailS > 0 {
		o.setLayer("gpu.busy_frac", t.gpuBusyS/t.gpuAvailS)
	}
	o.setLayer("minimpi.msgs_per_op", per(float64(t.msgs)))
	o.setLayer("minimpi.bytes_per_op", per(float64(t.bytes)))
	if t.nicAvailS > 0 {
		o.setLayer("minimpi.nic_busy_frac", t.nicBusyS/t.nicAvailS)
	}
	if t.armGrants > 0 {
		o.setLayer("arm.wait_s", t.armWaitS/float64(t.armGrants))
	}
	o.setLayer("arm.grants", per(float64(t.armGrants)))
	if t.armAvailS > 0 {
		o.setLayer("arm.busy_frac", t.armBusyS/t.armAvailS)
	}
	if t.virtS > 0 {
		o.setLayer("sim.host_ms_per_virt_s", wallS*1e3/t.virtS)
	}
}

// fig5Drift reports the adaptive-pipeline H2D bandwidth at the small
// sizes where the figures drifted from results.txt, as notes: the drift
// is reported as it is, never hidden and never a failure.
func fig5Drift(o *outcome) error {
	for _, kib := range []int{16, 64} {
		t, err := runH2D(nil, nil, 0, kib*netmodel.KiB)
		if err != nil {
			return err
		}
		got := float64(kib*netmodel.KiB) / t.Seconds() / netmodel.MiB
		want, err := paperValue("fig5", "pipeline-128-512K", float64(kib))
		if err != nil {
			return err
		}
		o.note("fig5 adaptive H2D at %d KiB: %.1f MiB/s, %s says %.1f (drift %+.1f)", kib, got, resultsFile, want, got-want)
	}
	return nil
}
