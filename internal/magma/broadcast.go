package magma

import (
	"errors"

	"dynacc/internal/accel"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

// Broadcast selects how a factored panel reaches every device
// (Config.Broadcast, DESIGN.md §15).
type Broadcast uint8

const (
	// BroadcastHost is the paper's MAGMA 1.1 loop: the compute node
	// uploads the panel to every device itself, G transfers serialized on
	// its NIC, and waits for them (the synchronous magma_dsetmatrix).
	// That wait keeps the broadcast on the critical path, which is what
	// makes the factorizations sensitive to the host-accelerator
	// bandwidth in Figures 9-10, so it is the zero value.
	BroadcastHost Broadcast = iota
	// BroadcastTree moves the panel accelerator-to-accelerator (the
	// paper's AC-to-AC transfers, Section III) over the binomial tree
	// fanOut describes: the host NIC carries the panel at most once.
	BroadcastTree
)

// Panel fan-out (BroadcastTree).
//
// The host loop costs O(G) panel times on the compute node's NIC. The
// fan-out moves the copies daemon-to-daemon along the binomial tree
// minimpi.BcastTree describes, rooted at the panel's owner: every device
// that holds the panel forwards it to its subtree concurrently with the
// other parents, children fed largest subtree first.
//
// The tree shape decides segmentation. A relay is a device that
// forwards a copy it received: every parent below the root, and the
// root of a host-resident panel, which forwards the seed it receives
// from the host. With a relay the panel is cut into segments that
// pipeline down the tree: a relay forwards segment s the moment it
// arrives, so successive levels overlap and the makespan collapses to
// the root's own transmit work — about ceil(log2 G) panel times — plus
// one segment per level. Without one (G = 2, or a window source over a
// flat tree, G <= 3) each child gets the whole panel in one copy.
//
// Every receive (the seed, each peer copy, each host upload) lands on
// daemon stream 0, so it queues behind the kernels of the previous
// panel that still read the workspace. Forwarding a received copy runs
// on stream 2, which lets a relay receive segment s+1 while it forwards
// segment s.
//
// The fan-out is client-orchestrated (daemons are request-driven: each
// edge is one peer copy per segment the front-end issues) and degrades
// per destination: a child with no peer path — or whose parent's own
// copy failed — gets the whole panel from the host instead. Any
// transfer error surfaces on the returned Pending; the fan-out never
// papers over a dead daemon.

// treeSegTarget is the segment size a relayed panel is cut into;
// treeMaxSegs bounds the per-edge request overhead. treeSendStream is
// the daemon stream a device forwards a received copy on.
const (
	treeSegTarget  = 1 << 20
	treeMaxSegs    = 8
	treeSendStream = 2
)

// treeSegs returns the pipeline segment count for an nbytes panel.
func treeSegs(nbytes int) int {
	s := (nbytes + treeSegTarget - 1) / treeSegTarget
	if s < 1 {
		s = 1
	}
	if s > treeMaxSegs {
		s = treeMaxSegs
	}
	return s
}

// bcastPanel is what a fan-out delivers: cols columns of colBytes bytes,
// packed contiguously into every destination workspace. The source is
// either host-resident — host holds the packed bytes (nil in model
// mode), seeded onto the owner's workspace and forwarded from there —
// or, with window set, already on the owner: cols columns pitch bytes
// apart at ptr+off (Cholesky's L21, strided in the matrix), downloaded
// to the host once, on first need, for children without a peer path.
type bcastPanel struct {
	colBytes, cols int
	host           []byte
	window         bool
	ptr            gpu.Ptr
	off, pitch     int
}

// BroadcastPanel fans one host-resident panel — cols columns of
// colBytes bytes, host copy panel (nil in model mode) — into every
// device's workspace dV by how, through the same Dist.broadcast QR and
// LU use. It is exported so the data-plane benchmark and tests can
// compare the strategies in isolation.
func BroadcastPanel(p *sim.Proc, devs []Device, owner int, dV []gpu.Ptr, panel []byte, colBytes, cols int, how Broadcast) error {
	d := &Dist{Devs: devs}
	return waitAllPending(p, d.broadcast(p, how, owner, dV, bcastPanel{colBytes: colBytes, cols: cols, host: panel}, nil, nil))
}

// treeReport is one completion report of the fan-out: the seed upload
// or one child delivery.
type treeReport struct{ err error }

// treePending aggregates the fan-out's completion reports.
type treePending struct {
	mbox *sim.Mailbox
	n    int // reports still outstanding
	err  error
}

func (tp *treePending) Wait(p *sim.Proc) error {
	for tp.n > 0 {
		rep := tp.mbox.Recv(p).(treeReport)
		tp.n--
		if rep.err != nil && tp.err == nil {
			tp.err = rep.err
		}
	}
	return tp.err
}

// fanOut delivers src into dst[g] of every device g over the binomial
// tree rooted at owner (for a host-resident source, dst[owner] too: it
// is the seed the root forwards from). The returned Pending completes
// when every device has its copy, or the first failure has been
// recorded.
func (d *Dist) fanOut(p *sim.Proc, owner int, dst []gpu.Ptr, src bcastPanel) Pending {
	G := len(d.Devs)
	nbytes := src.colBytes * src.cols
	children := make([][]int, G) // by virtual rank: device (v+owner)%G
	S := 1
	for v := range children {
		_, children[v] = minimpi.BcastTree(G, v)
		forwards := len(children[v])
		if v == 0 && !src.window {
			forwards-- // the host assist serves one of the root's children
		}
		if forwards > 0 && (v > 0 || !src.window) {
			S = treeSegs(nbytes) // a relay: pipeline segments
		}
	}
	segCols := (src.cols + S - 1) / S
	S = (src.cols + segCols - 1) / segCols
	segCol := func(s int) (int, int) { return s * segCols, minInt((s+1)*segCols, src.cols) }

	// One report per delivery: every non-owner device, plus the seed.
	tp := &treePending{mbox: sim.NewMailbox(p.Sim(), "treebcast"), n: G - 1}
	if !src.window {
		tp.n++
	}

	// have[g][s] fires once device g holds segment s (delivered by its
	// parent, or by the whole-panel host fallback). bad[g] marks a device
	// whose copy is unusable as a forwarding source; it is always set
	// before the corresponding have events fire, so a child's serving
	// process observes it in time.
	have := make([][]*sim.Event, G)
	for g := range have {
		have[g] = make([]*sim.Event, S)
		for s := range have[g] {
			have[g][s] = sim.NewEvent(p.Sim())
		}
	}
	bad := make([]bool, G)
	// done closes device g's delivery: any segment it still lacks is
	// released (forwarding from a bad copy falls back to the host), and
	// the outcome is reported.
	done := func(g int, err error) {
		if err != nil {
			bad[g] = true
		}
		for s := 0; s < S; s++ {
			if !have[g][s].Triggered() {
				have[g][s].Trigger()
			}
		}
		tp.mbox.Send(treeReport{err: err})
	}

	// hostCopy returns the host's copy of the panel. A window source is
	// downloaded from the owner once, by the first child that needs it;
	// later callers wait for that download.
	host := src.host
	var fetched *sim.Event
	var fetchErr error
	hostCopy := func(hp *sim.Proc) ([]byte, error) {
		if !src.window {
			return host, nil
		}
		if fetched != nil {
			fetched.Await(hp)
			return host, fetchErr
		}
		fetched = sim.NewEvent(p.Sim())
		var buf []byte
		if d.exec {
			buf = make([]byte, nbytes)
		}
		fetchErr = d.Devs[owner].CopyD2H2DAsync(buf, src.ptr, src.off, src.colBytes, src.cols, src.pitch, 0).Wait(hp)
		host = buf
		fetched.Trigger()
		return host, fetchErr
	}
	hostServe := func(hp *sim.Proc, cg int) error {
		b, err := hostCopy(hp)
		if err != nil {
			return err
		}
		return d.Devs[cg].CopyH2DAsync(dst[cg], 0, b, nbytes, 0).Wait(hp)
	}

	// sendSeg copies segment s from device g to device cg. The root of a
	// window source sends from the window on stream 0, where stream
	// order puts the copy behind the kernels that wrote it (Cholesky's
	// trsm); every other sender forwards a copy it received.
	sendSeg := func(hp *sim.Proc, pc accel.PeerCopier, g, cg, s int) (bool, error) {
		lo, hi := segCol(s)
		off, n := lo*src.colBytes, (hi-lo)*src.colBytes
		if g == owner && src.window {
			return pc.CopyToPeer(hp, src.ptr, src.off+lo*src.pitch, src.colBytes, hi-lo, src.pitch, d.Devs[cg], dst[cg], off, 0, 0)
		}
		return pc.CopyToPeer(hp, dst[g], off, n, 1, n, d.Devs[cg], dst[cg], off, treeSendStream, 0)
	}

	// One serving process per parent: its children are fed strictly in
	// BcastTree order, each segment forwarded as soon as the parent
	// holds it, so a child's own serving process is already streaming
	// onward while this parent moves to its next child.
	//
	// Host assist: with a host-resident panel the compute node's NIC is
	// idle once the seed is up, so the host serves the root's smallest
	// child (virtual rank 1, always a leaf) itself — that trims one full
	// panel off the root's transmit work, the fan-out's critical path.
	for v := 0; v < G; v++ {
		kids := children[v]
		if len(kids) == 0 {
			continue
		}
		g := (v + owner) % G
		if v == 0 && !src.window {
			cg := (kids[len(kids)-1] + owner) % G
			kids = kids[:len(kids)-1]
			p.Spawn("treebcast-hostassist", func(hp *sim.Proc) { done(cg, hostServe(hp, cg)) })
			if len(kids) == 0 {
				continue
			}
		}
		p.Spawn("treebcast-fan", func(hp *sim.Proc) {
			pc, isPeer := d.Devs[g].(accel.PeerCopier)
			for _, cv := range kids {
				cg := (cv + owner) % G
				var childErr error
				peerOK := isPeer
				for s := 0; s < S && peerOK; s++ {
					have[g][s].Await(hp)
					if bad[g] {
						peerOK = false
						break
					}
					handled, err := sendSeg(hp, pc, g, cg, s)
					if !handled || errors.Is(err, core.ErrNoPeerPath) {
						peerOK = false
					} else if err != nil {
						// A real transfer failure (daemon died mid-tree):
						// remember it, then try the host route so the
						// subtree is still served if only this hop broke.
						childErr = err
						peerOK = false
					} else {
						have[cg][s].Trigger()
					}
				}
				if !peerOK {
					// No peer path, a failed hop, or a degraded source:
					// the child gets the whole panel from the host.
					childErr = hostServe(hp, cg)
				}
				done(cg, childErr)
			}
		})
	}

	if src.window {
		for _, e := range have[owner] {
			e.Trigger()
		}
		return tp
	}
	// Seed: the owner's copy arrives from the host segment by segment,
	// releasing the fan-out as each lands.
	p.Spawn("treebcast-seed", func(hp *sim.Proc) {
		var seedErr error
		for s := 0; s < S; s++ {
			lo, hi := segCol(s)
			off, n := lo*src.colBytes, (hi-lo)*src.colBytes
			var b []byte
			if src.host != nil {
				b = src.host[off : off+n]
			}
			if seedErr = d.Devs[owner].CopyH2DAsync(dst[owner], off, b, n, 0).Wait(hp); seedErr != nil {
				break
			}
			have[owner][s].Trigger()
		}
		done(owner, seedErr)
	})
	return tp
}

// broadcast issues the broadcast of src into dst on every device and
// returns the transfers to wait for. This is the one place the strategy
// is chosen. BroadcastHost is the host loop, device by device as MAGMA
// 1.1 issues it, and needs a host-resident src. BroadcastTree starts
// fanOut. atOwner, when set, is the owner's copy instead of dst[owner]
// in the host loop and beside the fan-out in the tree: QR and LU put
// the panel back into the owner's matrix, Cholesky's owner already
// holds L21. extra(g), when set, issues device g's small companion
// upload (QR's T, LU's pivots).
func (d *Dist) broadcast(p *sim.Proc, how Broadcast, owner int, dst []gpu.Ptr, src bcastPanel, atOwner func() []Pending, extra func(g int) Pending) []Pending {
	tree := how == BroadcastTree && len(d.Devs) > 1
	var pends []Pending
	if tree {
		if atOwner != nil {
			pends = append(pends, atOwner()...)
		}
		pends = append(pends, d.fanOut(p, owner, dst, src))
	}
	for g, dev := range d.Devs {
		switch {
		case tree:
		case g == owner && atOwner != nil:
			pends = append(pends, atOwner()...)
		default:
			pends = append(pends, dev.CopyH2DAsync(dst[g], 0, src.host, src.colBytes*src.cols, 0))
		}
		if extra != nil {
			pends = append(pends, extra(g))
		}
	}
	return pends
}
