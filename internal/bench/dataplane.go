package bench

// Data-plane fast-path benchmark (`acbench -dataplane-json`): measures
// the two opt-in transports DESIGN.md §15 describes against their
// paper-faithful host-staged baselines, on the same modeled QDR fabric
// the figures use.
//
//   - Panel broadcast: one QR-panel-sized buffer fanned out to G
//     accelerator workspaces, classic per-device host upload loop vs the
//     binomial-tree daemon-to-daemon fan-out (magma.BroadcastPanel).
//     The host loop serializes G transfers on the compute node's NIC;
//     the tree pays one upload plus O(log G) link-serialized rounds.
//
//   - Redistribution: a running distribution grown onto a larger device
//     set, measured as total wire bytes, the per-block planner
//     (magma.Dist.Redistribute) against the full host round trip
//     (RedistributeStaged). The "unchanged" scenario grows a 2-block
//     matrix from 2 onto 4 devices — every block keeps its owner, so the
//     planner moves zero payload bytes (the wire carries only
//     alloc/free/copy headers). In the "mixed" scenario (8 blocks, half
//     change owner) each moved block crosses the wire once,
//     daemon-to-daemon.

import (
	"encoding/json"
	"os"

	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// BroadcastResult compares the two panel-broadcast strategies at one
// fleet size.
type BroadcastResult struct {
	GPUs       int     `json:"gpus"`
	PanelBytes int     `json:"panel_bytes"`
	HostSecs   float64 `json:"host_loop_seconds"`
	TreeSecs   float64 `json:"tree_seconds"`
	Speedup    float64 `json:"speedup"`
	// Host NIC bytes sent by the compute node under each strategy: the
	// loop uploads the panel G times, the tree once (plus the headers
	// of the daemon-to-daemon hops it orchestrates).
	HostLoopNICBytes int64 `json:"host_loop_nic_bytes"`
	TreeNICBytes     int64 `json:"tree_nic_bytes"`
}

// RedistResult measures one grow scenario under the planner and the
// staged baseline (wire bytes summed over every endpoint's sends).
type RedistResult struct {
	Scenario   string `json:"scenario"`
	FromGPUs   int    `json:"from_gpus"`
	ToGPUs     int    `json:"to_gpus"`
	Blocks     int    `json:"blocks"`
	Unchanged  int    `json:"unchanged_owner_blocks"`
	BlockBytes int64  `json:"total_block_bytes"`
	// MovedBlockBytes is the size of the blocks whose owner changes.
	MovedBlockBytes int64 `json:"moved_block_bytes"`
	// Wire bytes of each path. Staged is the full host round trip;
	// Planner is Dist.Redistribute (unchanged owners copy device-locally,
	// header-only on the wire; moved blocks go daemon-to-daemon).
	StagedWireBytes  int64 `json:"staged_wire_bytes"`
	PlannerWireBytes int64 `json:"planner_wire_bytes"`
	// UnchangedPayloadBytes is the payload the planner moved for
	// unchanged-owner blocks. In the all-unchanged scenario any payload
	// would be at least one block; wire traffic below that is header
	// traffic only, reported as zero. Pinned by TestDataplaneReport.
	UnchangedPayloadBytes int64 `json:"unchanged_owner_payload_bytes"`
}

// DataplaneReport is the `acbench -dataplane-json` artifact
// (BENCH_dataplane.json in CI).
type DataplaneReport struct {
	Broadcast []BroadcastResult `json:"broadcast"`
	Redist    []RedistResult    `json:"redistribute"`
	Notes     []string          `json:"notes,omitempty"`
}

// dataplaneFleet builds a cluster with nAC network-attached
// accelerators and runs body with the attached devices. The cluster is
// passed into body so it can snapshot traffic counters mid-run.
func dataplaneFleet(nAC int, body func(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, devs []accel.Device)) {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: nAC,
		Registry:     reg,
	})
	if err != nil {
		panic(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, nAC, false)
		if err != nil {
			panic(err)
		}
		defer node.ARM.Release(p, handles)
		devs := make([]accel.Device, nAC)
		for i, h := range handles {
			devs[i] = accel.Remote(node.Attach(h))
		}
		body(p, cl, node, devs)
	})
	if _, err := cl.Run(); err != nil {
		panic(err)
	}
}

// wireBytesSent sums BytesSent over every world rank: the total payload
// plus headers posted onto the fabric so far, regardless of which link.
func wireBytesSent(cl *cluster.Cluster) int64 {
	var total int64
	for r := 0; r < cl.World.Size(); r++ {
		total += cl.World.Traffic(r).BytesSent
	}
	return total
}

// MeasureBroadcast times the panel fan-out to gpus devices for one
// rows×cols f64 panel, host loop vs tree.
func MeasureBroadcast(gpus, rows, cols int) BroadcastResult {
	panelBytes := 8 * rows * cols
	res := BroadcastResult{GPUs: gpus, PanelBytes: panelBytes}
	run := func(how magma.Broadcast) (sim.Duration, int64) {
		var elapsed sim.Duration
		var nic int64
		dataplaneFleet(gpus, func(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, devs []accel.Device) {
			dV := make([]gpu.Ptr, gpus)
			for g, dev := range devs {
				ptr, err := dev.MemAlloc(p, panelBytes)
				if err != nil {
					panic(err)
				}
				dV[g] = ptr
			}
			before := node.World.WireStats().Bytes
			start := p.Now()
			if err := magma.BroadcastPanel(p, devs, 0, dV, nil, 8*rows, cols, how); err != nil {
				panic(err)
			}
			elapsed = p.Now().Sub(start)
			nic = node.World.WireStats().Bytes - before
			for g, dev := range devs {
				_ = dev.MemFree(p, dV[g])
			}
		})
		return elapsed, nic
	}
	host, hostNIC := run(magma.BroadcastHost)
	tree, treeNIC := run(magma.BroadcastTree)
	res.HostSecs = host.Seconds()
	res.TreeSecs = tree.Seconds()
	res.HostLoopNICBytes = hostNIC
	res.TreeNICBytes = treeNIC
	if tree > 0 {
		res.Speedup = host.Seconds() / tree.Seconds()
	}
	return res
}

// MeasureRedistribute grows an m×n/nb distribution from the first
// fromGPUs devices onto toGPUs devices with the planner and with the
// staged baseline and reports the wire bytes each one cost.
func MeasureRedistribute(scenario string, fromGPUs, toGPUs, m, n, nb int) RedistResult {
	blocks := (n + nb - 1) / nb
	res := RedistResult{
		Scenario: scenario,
		FromGPUs: fromGPUs, ToGPUs: toGPUs,
		Blocks:     blocks,
		BlockBytes: 8 * int64(m) * int64(n),
	}
	for b := 0; b < blocks; b++ {
		if b%fromGPUs == b%toGPUs {
			res.Unchanged++
		} else {
			res.MovedBlockBytes += 8 * int64(m) * int64(min(nb, n-b*nb))
		}
	}
	run := func(redist func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error) int64 {
		var wire int64
		dataplaneFleet(toGPUs, func(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, devs []accel.Device) {
			dist, err := magma.NewDist(p, devs[:fromGPUs], m, n, nb, false)
			if err != nil {
				panic(err)
			}
			if err := dist.Upload(p, nil); err != nil {
				panic(err)
			}
			before := wireBytesSent(cl)
			if err := redist(dist, p, devs); err != nil {
				panic(err)
			}
			wire = wireBytesSent(cl) - before
			dist.Free(p)
		})
		return wire
	}
	res.StagedWireBytes = run(func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error {
		return d.RedistributeStaged(p, devs)
	})
	res.PlannerWireBytes = run(func(d *magma.Dist, p *sim.Proc, devs []magma.Device) error {
		return d.Redistribute(p, devs)
	})
	if res.Unchanged == blocks {
		perBlock := res.BlockBytes / int64(blocks)
		if res.PlannerWireBytes < perBlock {
			res.UnchangedPayloadBytes = 0
		} else {
			res.UnchangedPayloadBytes = res.PlannerWireBytes
		}
	}
	return res
}

// MeasureDataplane runs the full data-plane comparison.
func MeasureDataplane() DataplaneReport {
	return DataplaneReport{
		// One 4096×128 f64 QR panel.
		Broadcast: []BroadcastResult{
			MeasureBroadcast(8, 4096, 128),
			MeasureBroadcast(16, 4096, 128),
		},
		Redist: []RedistResult{
			// All owners unchanged: 2 blocks over 2 GPUs grown to 4 —
			// block b's owner is b%2 before and b%4 after, identical for
			// b in {0,1}. The planner must move zero payload.
			MeasureRedistribute("unchanged", 2, 4, 2048, 2*128, 128),
			// Half the owners change: 8 blocks grown 2 -> 4.
			MeasureRedistribute("mixed", 2, 4, 2048, 8*128, 128),
		},
		Notes: []string{
			"host_loop uploads the panel once per GPU, serialized on the compute node's",
			"NIC; tree seeds the owner and fans out daemon-to-daemon (O(log G) rounds).",
			"Wire bytes include message headers; 'unchanged' grows a distribution where",
			"every block keeps its device, so only headers cross the wire.",
		},
	}
}

// WriteDataplaneJSON runs MeasureDataplane and writes the report
// (BENCH_dataplane.json in CI).
func WriteDataplaneJSON(path string) (DataplaneReport, error) {
	r := MeasureDataplane()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return r, err
	}
	return r, os.WriteFile(path, append(data, '\n'), 0o644)
}
