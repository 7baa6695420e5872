package magma

// hetero.go splits Dgeqrf's device roles across a mixed accelerator
// fleet (Config.Heterogeneous): the lookahead work — updating the next
// panel with the current block reflector and downloading it for the CPU
// factorization — is small, launch-latency-bound, and sits on the
// critical path, so it runs on a fast-launch panel device; the wide
// trailing update is pure FLOPs and stays on the distribution's
// high-throughput devices. The panel block moves from its owner to the
// panel device over the direct AC-to-AC path when both ends support it
// (accel.PeerCopier, the paper's Section III transfer advantage) and
// stages through the host otherwise.

import (
	"fmt"

	"dynacc/internal/accel"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// PickPanelDevice returns the index of the device best suited for the
// panel role: the lowest launch overhead among devices whose capability
// is known (accel.CapabilityOf) and which can run the magma kernel
// class. It returns -1 when no device advertises a capability, e.g. on
// a homogeneous cluster that never stamped descriptors.
func PickPanelDevice(devs []Device) int {
	var best sim.Duration
	idx := -1
	for i, dev := range devs {
		c, ok := accel.CapabilityOf(dev)
		if !ok || !c.Supports(gpu.KernelClass(KernelLarfb)) {
			continue
		}
		if idx == -1 || c.LaunchOverhead < best {
			best, idx = c.LaunchOverhead, i
		}
	}
	return idx
}

// panelOffload is the panel device's working state for one Dgeqrf run:
// reflector workspaces (V, T) and a packed copy of the lookahead block.
type panelOffload struct {
	dev        Device
	dV, dT, dC gpu.Ptr

	// Host-side staging (execute mode only; all nil in model mode).
	exec  bool
	stage []float64 // peer-copy fallback: block staged through the host
	rbuf  []float64 // R rows written back to the block's owner
	rrows int       // rows currently packed in rbuf
	rcols int
}

// newPanelOffload allocates the panel device's workspaces for an m-row
// factorization with panel width nb.
func newPanelOffload(p *sim.Proc, dev Device, m, nb int, exec bool) (*panelOffload, error) {
	po := &panelOffload{dev: dev}
	var err error
	if po.dV, err = dev.MemAlloc(p, 8*m*nb); err != nil {
		return nil, fmt.Errorf("magma: panel device V workspace: %w", err)
	}
	if po.dT, err = dev.MemAlloc(p, 8*nb*nb); err != nil {
		po.free(p)
		return nil, fmt.Errorf("magma: panel device T workspace: %w", err)
	}
	if po.dC, err = dev.MemAlloc(p, 8*m*nb); err != nil {
		po.free(p)
		return nil, fmt.Errorf("magma: panel device block workspace: %w", err)
	}
	if exec {
		po.exec = true
		po.stage = make([]float64, m*nb)
		po.rbuf = make([]float64, nb*nb)
	}
	return po, nil
}

func (po *panelOffload) free(p *sim.Proc) {
	for _, ptr := range []gpu.Ptr{po.dV, po.dT, po.dC} {
		if !ptr.IsNull() {
			_ = po.dev.MemFree(p, ptr)
		}
	}
}

// broadcast ships the factored panel (V, mj×jb packed) and the T factor
// to the panel device, alongside the regular per-GPU broadcast. The
// returned pends join the broadcast's: the later larfb is issued on the
// same stream, so device-side ordering holds even when the broadcast is
// asynchronous.
func (po *panelOffload) broadcast(panel, tmat []float64, mj, jb int) []Pending {
	return []Pending{
		po.dev.CopyH2DAsync(po.dV, 0, hostBytes(panel, mj*jb), 8*mj*jb, 0),
		po.dev.CopyH2DAsync(po.dT, 0, hostBytes(tmat, jb*jb), 8*jb*jb, 0),
	}
}

// lookahead runs the panel role for block `next`: fetch rows [j, m) of
// the block from its owner into dC (packed, ld = mj), apply the current
// block reflector there, and download the updated block. The returned
// pend completes when nextPanel holds the rows below the diagonal block
// — the panel the CPU factors next — and rbuf holds the R rows for
// writeback. The owner's device is synced first so the fetch reads the
// fully updated block, exactly where the classic schedule's in-stream
// ordering put it.
func (po *panelOffload) lookahead(p *sim.Proc, d *Dist, next, j, jb, jbn int, nextPanel []float64) ([]Pending, error) {
	owner := d.Owner(next)
	src := d.Devs[owner]
	mj := d.M - j
	if err := src.Sync(p); err != nil {
		return nil, err
	}
	moved := false
	if pc, ok := src.(accel.PeerCopier); ok {
		var err error
		moved, err = pc.CopyToPeer(p, d.ptrs[owner], 8*d.elemOff(next, j, 0), 8*mj, jbn, 8*d.M,
			po.dev, po.dC, 0, 0, 0)
		if err != nil {
			return nil, err
		}
	}
	if !moved {
		// Host-staged fallback (e.g. a node-local owner): download the
		// block, then push it to the panel device.
		stage := hostPanel(po.stage, mj*jbn)
		if err := waitAllPending(p, d.downloadCols(p, next, j, mj, 0, jbn, stage, 0)); err != nil {
			return nil, err
		}
		var raw []byte
		if stage != nil {
			raw = f64bytes(stage)
		}
		if err := po.dev.CopyH2DAsync(po.dC, 0, raw, 8*mj*jbn, 0).Wait(p); err != nil {
			return nil, err
		}
	}
	pd := po.dev.LaunchAsync(KernelLarfb,
		larfbArgs(mj, jbn, jb, po.dV, 0, mj, po.dT, 0, jb, po.dC, 0, mj), 0)
	var raw []byte
	if po.exec {
		raw = make([]byte, 8*mj*jbn)
	}
	dl := po.dev.CopyD2HAsync(raw, po.dC, 0, 8*mj*jbn, 0)
	po.dev.Flush(0)
	po.rrows, po.rcols = jb, jbn
	return []Pending{pd, pendFunc{pd: dl, after: func() {
		if raw == nil {
			return
		}
		// Split the packed mj×jbn block: rows [0, jb) are R entries going
		// back to the owner, rows [jb, mj) are the next panel for the CPU.
		for c := 0; c < jbn; c++ {
			for i := 0; i < jb; i++ {
				po.rbuf[i+c*jb] = getF64(raw[8*(i+c*mj):])
			}
			for i := jb; i < mj; i++ {
				nextPanel[(i-jb)+c*(mj-jb)] = getF64(raw[8*(i+c*mj):])
			}
		}
	}}}, nil
}

// writeback pushes the R rows the lookahead produced back into the
// block owner's matrix (rows [j, j+jb) of block next). Issued after the
// panel download completes; the caller tracks the pends.
func (po *panelOffload) writeback(d *Dist, next, j int) []Pending {
	return d.uploadCols(next, j, po.rrows, 0, po.rcols, hostPanel(po.rbuf, po.rrows*po.rcols), 0)
}
