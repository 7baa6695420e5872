package magma

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// TestBroadcastPanelTreeDeliversBytes checks the segmented tree fan-out
// at the primitive level: for several fleet sizes (covering trees of
// depth 1..3), a multi-segment odd-sized panel broadcast from a
// non-zero owner must land byte-identical in every device's workspace —
// exactly what the classic host loop would have delivered.
func TestBroadcastPanelTreeDeliversBytes(t *testing.T) {
	for _, g := range []int{2, 3, 5, 8} {
		withCluster(t, g, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			const nbytes = 3<<20 + 8 // > 2 segments, not segment-aligned
			rng := rand.New(rand.NewSource(int64(g)))
			panel := make([]byte, nbytes)
			rng.Read(panel)

			dV := make([]gpu.Ptr, len(devs))
			for i, dev := range devs {
				ptr, err := dev.MemAlloc(p, nbytes)
				if err != nil {
					t.Fatal(err)
				}
				dV[i] = ptr
			}
			owner := g / 2
			if err := BroadcastPanel(p, devs, owner, dV, panel, 8, nbytes/8, BroadcastTree); err != nil {
				t.Fatalf("G=%d: tree broadcast: %v", g, err)
			}
			for i, dev := range devs {
				got := make([]byte, nbytes)
				if err := dev.CopyD2HAsync(got, dV[i], 0, nbytes, 0).Wait(p); err != nil {
					t.Fatalf("G=%d: download dev %d: %v", g, i, err)
				}
				if !bytes.Equal(got, panel) {
					t.Errorf("G=%d: device %d holds wrong panel bytes", g, i)
				}
			}
		})
	}
}

// TestDgeqrfTreeBroadcastBitIdentical factors the same matrix with the
// host-loop broadcast and with BroadcastTree — QR, LU and Cholesky — and
// requires bit-identical factors (and tau or pivots): the fan-out
// changes only how the panel bytes travel, never what any kernel
// computes. The tree results are also checked against LAPACK. The cases
// cover flat (G <= 3) and relayed trees, a node-local device without a
// peer path, and a host so fast (CPUGFlops 1e6) that the next panel's
// fan-out starts while the previous trailing update still reads the
// workspaces it overwrites.
func TestDgeqrfTreeBroadcastBitIdentical(t *testing.T) {
	type factor struct {
		name string
		// run factors a on dist in place and returns tau or the pivots
		// (as float64), the LAPACK reference factors and the reference
		// extra output.
		run func(p *sim.Proc, dist *Dist, cfg Config) ([]float64, error)
		ref func(a []float64, n, nb int) ([]float64, []float64)
		mat func(rng *rand.Rand, n int) []float64
	}
	factors := []factor{
		{"QR", func(p *sim.Proc, dist *Dist, cfg Config) ([]float64, error) {
			tau := make([]float64, dist.N)
			return tau, Dgeqrf(p, dist, tau, cfg)
		}, func(a []float64, n, nb int) ([]float64, []float64) {
			tau := make([]float64, n)
			lapack.Dgeqrf(n, n, a, n, tau, nb)
			return a, tau
		}, randSquare},
		{"LU", func(p *sim.Proc, dist *Dist, cfg Config) ([]float64, error) {
			ipiv := make([]int, dist.N)
			err := Dgetrf(p, dist, ipiv, cfg)
			return intsF64(ipiv), err
		}, func(a []float64, n, nb int) ([]float64, []float64) {
			ipiv := make([]int, n)
			if err := lapack.Dgetrf(n, n, a, n, ipiv, nb); err != nil {
				t.Fatal(err)
			}
			return a, intsF64(ipiv)
		}, randSquare},
		{"Cholesky", func(p *sim.Proc, dist *Dist, cfg Config) ([]float64, error) {
			return nil, Dpotrf(p, dist, cfg)
		}, func(a []float64, n, nb int) ([]float64, []float64) {
			if err := lapack.Dpotrf(n, a, n, nb); err != nil {
				t.Fatal(err)
			}
			return a, nil
		}, spdMatrix},
	}
	cases := []struct {
		remote, local int
		n, nb         int
		cpuGFlops     float64
	}{
		{remote: 2, n: 80, nb: 16},
		{remote: 3, n: 80, nb: 16},
		{remote: 4, n: 80, nb: 16},
		{remote: 2, local: 1, n: 80, nb: 16},
		{remote: 3, n: 512, nb: 64, cpuGFlops: 1e6},
		{remote: 4, n: 512, nb: 64, cpuGFlops: 1e6},
	}
	for _, f := range factors {
		for _, c := range cases {
			name := fmt.Sprintf("%s/G=%d+%dlocal/n=%d/cpu=%g", f.name, c.remote, c.local, c.n, c.cpuGFlops)
			t.Run(name, func(t *testing.T) {
				run := func(how Broadcast) (got, extra []float64) {
					withCluster(t, c.remote, true, c.local, func(p *sim.Proc, devs []Device, local []*gpu.Device) {
						if len(local) > 0 {
							// A node-local device in the middle of the set:
							// no peer path to or from it.
							ld := Local(p, local[0])
							defer ld.Close()
							devs = append([]Device{devs[0], ld}, devs[1:]...)
						}
						a := f.mat(rand.New(rand.NewSource(101)), c.n)
						dist, err := NewDist(p, devs, c.n, c.n, c.nb, true)
						if err != nil {
							t.Fatal(err)
						}
						defer dist.Free(p)
						if err := dist.Upload(p, a); err != nil {
							t.Fatal(err)
						}
						cfg := DefaultConfig()
						cfg.NB = c.nb
						cfg.CPUGFlops = c.cpuGFlops
						cfg.Broadcast = how
						if extra, err = f.run(p, dist, cfg); err != nil {
							t.Fatal(err)
						}
						got = make([]float64, c.n*c.n)
						if err := dist.Download(p, got); err != nil {
							t.Fatal(err)
						}
					})
					return got, extra
				}
				host, hostExtra := run(BroadcastHost)
				tree, treeExtra := run(BroadcastTree)
				diff := 0
				for i := range host {
					if math.Float64bits(host[i]) != math.Float64bits(tree[i]) {
						diff++
					}
				}
				if diff > 0 {
					t.Fatalf("%d of %d factor entries bit-differ from the host loop", diff, len(host))
				}
				for i := range hostExtra {
					if hostExtra[i] != treeExtra[i] {
						t.Fatalf("tau/pivot %d differs from the host loop", i)
					}
				}

				ref, refExtra := f.ref(f.mat(rand.New(rand.NewSource(101)), c.n), c.n, c.nb)
				scale := lapack.Dlange(lapack.MaxAbs, c.n, c.n, ref, c.n)
				for j := 0; j < c.n; j++ {
					for i := 0; i < c.n; i++ {
						if f.name == "Cholesky" && i < j {
							continue // the upper triangle is not referenced
						}
						if k := i + j*c.n; math.Abs(tree[k]-ref[k]) > 1e-10*scale {
							t.Fatalf("tree factor differs from LAPACK at (%d,%d): %g vs %g", i, j, tree[k], ref[k])
						}
					}
				}
				if f.name == "LU" {
					for i := range refExtra {
						if treeExtra[i] != refExtra[i] {
							t.Fatalf("pivot %d = %g, LAPACK %g", i, treeExtra[i], refExtra[i])
						}
					}
				}
			})
		}
	}
}

func intsF64(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// TestRedistributeDirectPreservesData grows a distribution 2 -> 4
// devices through the planner — local copies for unchanged owners,
// daemon-to-daemon copies for moved blocks — and requires the
// downloaded matrix to be bit-identical to the full host round trip of
// the same matrix: same bytes, different route. A second planner run
// over devices that offer neither a local nor a peer copy checks the
// per-block host-staging fallback the same way.
func TestRedistributeDirectPreservesData(t *testing.T) {
	const n, nb = 96, 16
	run := func(noPeer bool, redist func(d *Dist, p *sim.Proc, devs []Device) error) []float64 {
		var got []float64
		withCluster(t, 4, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			if noPeer {
				// trackedDev embeds the Device interface, so it hides
				// accel.LocalCopier and accel.PeerCopier.
				for i, dev := range devs {
					devs[i] = &trackedDev{Device: dev, t: t, live: map[gpu.Ptr]bool{}}
				}
			}
			rng := rand.New(rand.NewSource(7))
			a := randSquare(rng, n)
			dist, err := NewDist(p, devs[:2], n, n, nb, true)
			if err != nil {
				t.Fatal(err)
			}
			defer dist.Free(p)
			if err := dist.Upload(p, a); err != nil {
				t.Fatal(err)
			}
			if err := redist(dist, p, devs); err != nil {
				t.Fatal(err)
			}
			if len(dist.Devs) != 4 {
				t.Fatalf("redistribute left %d devices, want 4", len(dist.Devs))
			}
			got = make([]float64, n*n)
			if err := dist.Download(p, got); err != nil {
				t.Fatal(err)
			}
		})
		return got
	}
	staged := run(false, func(d *Dist, p *sim.Proc, devs []Device) error { return d.RedistributeStaged(p, devs) })
	planner := func(d *Dist, p *sim.Proc, devs []Device) error { return d.Redistribute(p, devs) }
	for _, noPeer := range []bool{false, true} {
		planned := run(noPeer, planner)
		for i := range staged {
			if math.Float64bits(staged[i]) != math.Float64bits(planned[i]) {
				t.Fatalf("planned redistribution (no peer path: %v) differs from staged at %d", noPeer, i)
			}
		}
	}
}
