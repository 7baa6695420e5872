package magma

import (
	"encoding/binary"
	"math"

	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

func putF64(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// workspace holds a factorization's per-device scratch buffers:
// bufs[i][g] is the i-th requested size on devs[g].
type workspace struct {
	devs []Device
	bufs [][]gpu.Ptr
}

// newWorkspace allocates one buffer of each size on every device,
// device by device, freeing what it got if an allocation fails.
func newWorkspace(p *sim.Proc, devs []Device, sizes ...int) (*workspace, error) {
	w := &workspace{devs: devs, bufs: make([][]gpu.Ptr, len(sizes))}
	for i := range w.bufs {
		w.bufs[i] = make([]gpu.Ptr, len(devs))
	}
	for g, dev := range devs {
		for i, n := range sizes {
			ptr, err := dev.MemAlloc(p, n)
			if err != nil {
				w.free(p)
				return nil, err
			}
			w.bufs[i][g] = ptr
		}
	}
	return w, nil
}

// free releases the buffers on the devices they were allocated on. It is
// safe to call again, and on a nil workspace. Free errors are dropped:
// free runs on the way out, where the factorization's own result (or
// error) is what the caller acts on.
func (w *workspace) free(p *sim.Proc) {
	if w == nil {
		return
	}
	for g, dev := range w.devs {
		for _, b := range w.bufs {
			if !b[g].IsNull() {
				_ = dev.MemFree(p, b[g])
			}
		}
	}
	w.devs = nil
}

// Config tunes the hybrid factorizations.
type Config struct {
	// NB is the panel width (MAGMA's blocking factor).
	NB int
	// CPUGFlops is the host panel-factorization rate in GFlop/s; skinny
	// panels run memory-bound, far below dense CPU peak.
	CPUGFlops float64
	// Lookahead overlaps the next panel's download and CPU factorization
	// with the wide trailing update, as MAGMA does.
	Lookahead bool
	// Broadcast picks how each factored panel (QR's V, LU's panel,
	// Cholesky's L21) reaches the other devices: the paper's host loop
	// (BroadcastHost, the zero value that Figures 9-10 measure) or the
	// accelerator-to-accelerator fan-out (BroadcastTree), where a device
	// without a peer path gets the panel from the host. Either way every
	// kernel computes the same thing, so the factors are bit-identical.
	Broadcast Broadcast
	// Heterogeneous splits Dgeqrf's device roles across a mixed fleet:
	// the latency-bound lookahead work (next-panel update and download)
	// runs on PanelDevice — a fast-launch device outside the matrix
	// distribution — while the FLOP-bound wide trailing update stays on
	// the distribution's high-throughput devices. Off by default, which
	// keeps homogeneous runs byte-identical to the classic schedule.
	Heterogeneous bool
	// PanelDevice hosts the panel role in Heterogeneous mode (pick it
	// with PickPanelDevice, or supply any device with cheap launches).
	// The panel block moves device-to-device when both ends support
	// accel.PeerCopier, and stages through the host otherwise.
	PanelDevice Device
	// Rebalance, when set, is consulted by Dgeqrf between panel steps
	// with the number of panels already factored. Returning a non-nil
	// device list that differs from the distribution's current one
	// quiesces the GPUs and redistributes the matrix onto the new set
	// (Dist.Redistribute) before the next panel — the malleability
	// hook that lets a running job expand onto accelerators registered
	// with the ARM mid-factorization, or vacate ones being retired.
	// Returning nil (or the same list) continues unchanged.
	Rebalance func(p *sim.Proc, panelsDone int) []Device
}

// DefaultConfig returns the MAGMA 1.1 style defaults on the paper's
// testbed: 128-wide panels, a dual-socket Westmere host worth ~12
// GFlop/s on skinny panels, lookahead on.
func DefaultConfig() Config {
	return Config{NB: 128, CPUGFlops: 12, Lookahead: true}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.NB <= 0 {
		c.NB = d.NB
	}
	if c.CPUGFlops <= 0 {
		c.CPUGFlops = d.CPUGFlops
	}
	return c
}

// QRFlops is the standard flop count of an m×n QR factorization (the
// denominator of the paper's Figure 9 GFlop/s).
func QRFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	if m >= n {
		return 2*fm*fn*fn - 2.0/3.0*fn*fn*fn
	}
	return 2*fn*fm*fm - 2.0/3.0*fm*fm*fm
}

// CholeskyFlops is the flop count of an n×n Cholesky factorization
// (Figure 10).
func CholeskyFlops(n int) float64 {
	fn := float64(n)
	return fn * fn * fn / 3
}
