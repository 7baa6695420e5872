package main

import (
	"fmt"
	"math/rand"
	"time"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// sim_fleet: 32 daemons time-shared by 96 tenants through shared leases
// and sessions; every tenant runs rounds of pipelined copies and a
// launch, in model mode. One fleet simulation is one round of the
// benchmark; its ops are the tenants' device and ARM calls.
const (
	fleetDaemons   = 32
	fleetTenants   = 96
	fleetRounds    = 32
	fleetCopy      = 512 * netmodel.KiB
	fleetMaxOffset = 2 * sim.Millisecond // tenants start at seeded offsets below this
	fleetKernel    = "fleet.gemm"
)

// fleetPhase is one measured stretch of back-to-back fleet simulations.
type fleetPhase struct {
	ops        int
	latMS      []float64 // wall time per fleet simulation
	buildS     []float64 // wall time of each cluster.New
	makespanMS []float64 // virtual time until the last tenant released
	virtOpUS   []float64 // virtual latency of every tenant call
	h2dUS      []float64
	cost       hostCost
	tot        simTotals
}

func runSimFleet(rc runConfig) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(rc.Seed))
	tr := newTracer(false)
	phases := []*fleetPhase{{}, {}}
	costs, err := runPhases(rc, tr, o, func(i int) error { return fleetSim(phases[i], o, tr, rng) })
	if err != nil {
		return nil, err
	}
	for i, c := range costs {
		phases[i].cost = c
	}
	phases = phases[:len(costs)]

	var builds []float64
	for _, ph := range phases {
		builds = append(builds, ph.buildS...)
	}
	o.setE2E("setup_s", median(builds))
	o.samples["setup"] = len(builds)
	a := phases[0]
	o.setHostE2E(a.cost, a.ops, a.latMS)
	o.setE2E("virt_makespan_ms", median(a.makespanMS))
	o.setE2E("virt_op_p50_us", median(a.virtOpUS))
	o.setE2E("virt_op_p99_us", quantile(a.virtOpUS, 0.99))
	o.samples["virt_op_us"] = len(a.virtOpUS)
	if h2d := median(a.h2dUS); h2d > 0 {
		o.setE2E("virt_h2d_mibps", float64(fleetCopy)/netmodel.MiB/(h2d/1e6))
	}
	if rc.Trace {
		b := phases[1]
		b.tot.setLayer(o, b.ops, b.cost.wallS)
		if err := o.setTraced(tr, a.cost, b.cost, a.ops, b.ops, rc.TraceOut); err != nil {
			return nil, err
		}
	}
	if err := paperGuard(o); err != nil {
		return nil, err
	}
	return o, nil
}

// fleetSim builds and runs one fleet simulation and checks its books:
// every acquire released, every session closed.
func fleetSim(ph *fleetPhase, o *outcome, tr *tracer, rng *rand.Rand) error {
	t0 := time.Now()
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: fleetKernel,
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 250 * sim.Microsecond },
	})
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:  fleetTenants,
		Accelerators:  fleetDaemons,
		Registry:      reg,
		ShareCapacity: (fleetTenants+fleetDaemons-1)/fleetDaemons + 1,
	})
	if err != nil {
		return err
	}
	ph.buildS = append(ph.buildS, time.Since(t0).Seconds())
	offsets := make([]sim.Duration, fleetTenants)
	for i := range offsets {
		offsets[i] = sim.Duration(rng.Int63n(int64(fleetMaxOffset)))
	}
	tr.track++
	base := tr.track * fleetTenants * (fleetRounds + 2)
	var (
		done, acquired, released, opened, closed int
		lastDone                                 sim.Time
		books                                    error
	)
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		p.Wait(offsets[node.Rank])
		round := base + node.Rank*(fleetRounds+2)
		tid := node.Rank
		call := func(root int, name string, fn func() error) error {
			sp := tr.begin(p, name, round, root, tid)
			s := p.Now()
			err := fn()
			ph.virtOpUS = append(ph.virtOpUS, float64(p.Now().Sub(s))/1e3)
			if name == "core.h2d" {
				ph.h2dUS = append(ph.h2dUS, float64(p.Now().Sub(s))/1e3)
			}
			tr.end(p, sp)
			ph.ops++
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("fleet tenant %d %s: %v", node.Rank, name, err)
			}
			return err
		}
		defer func() {
			done++
			if done < fleetTenants {
				return
			}
			// The last tenant out audits the books.
			lastDone = p.Now()
			books = fleetBooks(p, cl, node, acquired, released, opened, closed)
			if err := ph.tot.addARM(p, node.ARM); err != nil && books == nil {
				books = err
			}
		}()

		root := tr.begin(p, "round.open", round, 0, tid)
		var handles []arm.Handle
		var ac *core.Accel
		var ptr gpu.Ptr
		err := call(root, "arm.acquire", func() (err error) {
			handles, err = node.ARM.AcquireShared(p, 1, true)
			return err
		})
		if err == nil {
			acquired++
			err = call(root, "core.session_open", func() (err error) {
				ac, err = node.AttachSession(p, handles[0])
				return err
			})
		}
		if err == nil {
			opened++
			err = call(root, "core.alloc", func() (err error) {
				ptr, err = ac.MemAlloc(p, fleetCopy)
				return err
			})
		}
		tr.end(p, root)
		if err != nil {
			return
		}
		k := ac.KernelCreate(fleetKernel).SetArgs(gpu.PtrArg(ptr), gpu.IntArg(int64(fleetCopy/8)))
		for r := 0; r < fleetRounds && err == nil; r++ {
			round++
			root := tr.begin(p, "round.fleet", round, 0, tid)
			err = call(root, "core.h2d", func() error { return ac.MemcpyH2D(p, ptr, 0, nil, fleetCopy) })
			if err == nil {
				err = call(root, "core.launch", func() error { return k.Run(p, gpu.Dim3{X: 64}, gpu.Dim3{X: 256}) })
			}
			if err == nil {
				err = call(root, "core.d2h", func() error { return ac.MemcpyD2H(p, nil, ptr, 0, fleetCopy) })
			}
			tr.end(p, root)
		}
		if err != nil {
			return
		}
		round++
		root = tr.begin(p, "round.close", round, 0, tid)
		defer tr.end(p, root)
		if call(root, "core.free", func() error { return ac.MemFree(p, ptr) }) != nil {
			return
		}
		if call(root, "core.session_close", func() error { return ac.CloseSession(p) }) != nil {
			return
		}
		closed++
		if call(root, "arm.release", func() error { return node.ARM.Release(p, handles) }) != nil {
			return
		}
		released++
	})
	if _, err := cl.Run(); err != nil {
		return err
	}
	ph.latMS = append(ph.latMS, float64(time.Since(t0))/1e6)
	ph.makespanMS = append(ph.makespanMS, float64(lastDone)/1e6)
	ph.tot.addCluster(cl)
	if books != nil {
		o.problem("fleet books: %v", books)
	}
	return nil
}

// fleetBooks checks, once every tenant is done, that every acquire was
// matched by a release and every session was closed — on the
// benchmark's own counts, the ARM's books and the daemons.
func fleetBooks(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, acquired, released, opened, closed int) error {
	if acquired != fleetTenants || released != acquired {
		return fmt.Errorf("%d tenants, %d acquires, %d releases", fleetTenants, acquired, released)
	}
	if opened != fleetTenants || closed != opened {
		return fmt.Errorf("%d tenants, %d sessions opened, %d closed", fleetTenants, opened, closed)
	}
	for _, d := range cl.Daemons {
		if n := d.OpenSessions(); n != 0 {
			return fmt.Errorf("daemon rank %d still has %d open sessions", d.Rank(), n)
		}
	}
	ps, err := node.ARM.StatsEx(p)
	if err != nil {
		return fmt.Errorf("arm stats: %w", err)
	}
	if ps.Assigned != 0 || ps.Shared != 0 || ps.Acquires != ps.Releases {
		return fmt.Errorf("arm books: %d assigned, %d shared, %d acquires vs %d releases",
			ps.Assigned, ps.Shared, ps.Acquires, ps.Releases)
	}
	return nil
}
