package main

import (
	"math/rand"
	"time"

	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// sim_paper: one op is one paper point in model mode — a QR and a
// Cholesky at N=10240 on 3 network GPUs (Figs. 9/10) and one 64 MiB
// host-to-device copy with the adaptive pipeline (Fig. 5).
const (
	paperN    = 10240
	paperGPUs = 3
	paperCopy = 64 * netmodel.MiB
	execN     = 128 // execute-mode check against LAPACK
	execNB    = 16
)

// paperPhase is one measured stretch of back-to-back paper points.
type paperPhase struct {
	ops        int
	latMS      []float64
	qrGF       []float64
	cholGF     []float64
	h2dMiBps   []float64
	virtOpUS   []float64 // virtual time of the three jobs of a point
	makespanMS []float64 // simulated time of the point's clusters
	cost       hostCost
	tot        simTotals
}

func runSimPaper(rc runConfig) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(rc.Seed))

	// Set-up: execute-mode QR and Cholesky on 3 network GPUs at a small
	// N, checked against host LAPACK.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, f := range []factorization{qrFactor, cholFactor} {
			if err := checkExecFactor(o, f, execN, execNB, rng); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setE2E("setup_s", median(setups))
	o.samples["setup"] = len(setups)

	tr := newTracer(false)
	phases := []*paperPhase{{}, {}}
	round := 0
	costs, err := runPhases(rc, tr, o, func(i int) error {
		round++
		paperPoint(phases[i], o, tr, round)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range costs {
		phases[i].cost = c
	}
	phases = phases[:len(costs)]

	a := phases[0]
	o.setHostE2E(a.cost, a.ops, a.latMS)
	o.setE2E("virt_makespan_ms", median(a.makespanMS))
	o.setE2E("virt_op_p50_us", median(a.virtOpUS))
	o.setE2E("virt_op_p99_us", quantile(a.virtOpUS, 0.99))
	o.samples["virt_op_us"] = len(a.virtOpUS)
	o.setE2E("virt_qr_gflops", median(a.qrGF))
	o.setE2E("virt_chol_gflops", median(a.cholGF))
	o.setE2E("virt_h2d_mibps", median(a.h2dMiBps))
	checkPaperFactor(o, qrFactor, paperN, median(a.qrGF))
	checkPaperFactor(o, cholFactor, paperN, median(a.cholGF))
	for _, ph := range phases {
		for i := range ph.qrGF {
			if ph.qrGF[i] != a.qrGF[0] || ph.cholGF[i] != a.cholGF[0] || ph.h2dMiBps[i] != a.h2dMiBps[0] {
				o.problem("paper point %d differs from the first: virtual results must repeat exactly", i)
				break
			}
		}
	}
	if want, err := paperValue("fig5", "pipeline-128-512K", paperCopy/netmodel.KiB); err != nil {
		o.problem("fig5 reference: %v", err)
	} else if got := median(a.h2dMiBps); !samePrinted(got, want) {
		o.note("fig5 adaptive H2D at 64 MiB: %.1f MiB/s, %s says %.1f", got, resultsFile, want)
	}
	if err := fig5Drift(o); err != nil {
		return nil, err
	}
	if rc.Trace {
		b := phases[1]
		b.tot.setLayer(o, b.ops, b.cost.wallS)
		if err := o.setTraced(tr, a.cost, b.cost, a.ops, b.ops, rc.TraceOut); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// paperPoint runs one paper point; a failed job counts the op failed.
func paperPoint(ph *paperPhase, o *outcome, tr *tracer, round int) {
	t0 := time.Now()
	virt0 := ph.tot.virtS
	ph.ops++
	o.attempted++
	qr, err := runFactor(tr, &ph.tot, round, qrFactor, paperGPUs, paperN, nil, 0)
	var chol factorRun
	if err == nil {
		chol, err = runFactor(tr, &ph.tot, round, cholFactor, paperGPUs, paperN, nil, 0)
	}
	var h2d sim.Duration
	if err == nil {
		h2d, err = runH2D(tr, &ph.tot, round, paperCopy)
	}
	ph.latMS = append(ph.latMS, float64(time.Since(t0))/1e6)
	if err != nil {
		o.failed++
		o.problem("paper point %d: %v", round, err)
		return
	}
	ph.qrGF = append(ph.qrGF, qrFactor.gflops(paperN, qr.virt))
	ph.cholGF = append(ph.cholGF, cholFactor.gflops(paperN, chol.virt))
	ph.h2dMiBps = append(ph.h2dMiBps, float64(paperCopy)/netmodel.MiB/h2d.Seconds())
	ph.virtOpUS = append(ph.virtOpUS, float64(qr.makespan+chol.makespan+h2d)/1e3)
	ph.makespanMS = append(ph.makespanMS, (ph.tot.virtS-virt0)*1e3)
}
