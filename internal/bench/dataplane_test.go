package bench

import "testing"

// TestDataplaneReport pins the data-plane fast path's acceptance
// numbers (the figures BENCH_dataplane.json publishes): the tree panel
// broadcast at 8 GPUs beats the host-staged loop by at least 2x while
// taking the panel off the host NIC, and the redistribution planner
// moves zero payload bytes when all owners stay put and each moved block
// once otherwise — against a host-staged baseline that round-trips the
// whole matrix. The simulation is
// deterministic, so these are exact regressions, not flaky perf tests.
func TestDataplaneReport(t *testing.T) {
	rep := MeasureDataplane()

	var b8 *BroadcastResult
	for i := range rep.Broadcast {
		if rep.Broadcast[i].GPUs == 8 {
			b8 = &rep.Broadcast[i]
		}
	}
	if b8 == nil {
		t.Fatal("report has no 8-GPU broadcast row")
	}
	if b8.Speedup < 2.0 {
		t.Errorf("8-GPU tree broadcast speedup = %.2fx, want >= 2x", b8.Speedup)
	}
	if b8.TreeNICBytes >= b8.HostLoopNICBytes/2 {
		t.Errorf("tree path still host-NIC-bound: %d vs %d bytes",
			b8.TreeNICBytes, b8.HostLoopNICBytes)
	}
	for _, b := range rep.Broadcast {
		if b.GPUs > 8 && b.Speedup <= b8.Speedup {
			t.Errorf("%d-GPU speedup %.2fx not above the 8-GPU %.2fx: the tree stopped scaling",
				b.GPUs, b.Speedup, b8.Speedup)
		}
	}

	var unchanged, mixed *RedistResult
	for i := range rep.Redist {
		switch rep.Redist[i].Scenario {
		case "unchanged":
			unchanged = &rep.Redist[i]
		case "mixed":
			mixed = &rep.Redist[i]
		}
	}
	if unchanged == nil || mixed == nil {
		t.Fatalf("report missing redistribute scenarios: %+v", rep.Redist)
	}
	if unchanged.Unchanged != unchanged.Blocks {
		t.Fatalf("'unchanged' scenario actually moved owners: %d of %d unchanged",
			unchanged.Unchanged, unchanged.Blocks)
	}
	if unchanged.UnchangedPayloadBytes != 0 {
		t.Errorf("unchanged-owner redistribution moved %d payload bytes, want 0",
			unchanged.UnchangedPayloadBytes)
	}
	// Headers only on the wire: orders of magnitude below the block data
	// the staged baseline round-trips.
	if unchanged.PlannerWireBytes*1000 > unchanged.BlockBytes {
		t.Errorf("unchanged-owner planner sent %d wire bytes for %d block bytes",
			unchanged.PlannerWireBytes, unchanged.BlockBytes)
	}
	if unchanged.StagedWireBytes < unchanged.BlockBytes {
		t.Errorf("staged baseline sent %d wire bytes, expected at least the %d block bytes",
			unchanged.StagedWireBytes, unchanged.BlockBytes)
	}

	// Moved blocks: the planner sends each one daemon-to-daemon, so it
	// crosses the wire once (host staging would carry it down and up
	// again); the staged baseline moves the whole matrix twice.
	for _, r := range []*RedistResult{unchanged, mixed} {
		if r.PlannerWireBytes >= r.StagedWireBytes {
			t.Errorf("%s: planner sent %d wire bytes, staged %d: want fewer",
				r.Scenario, r.PlannerWireBytes, r.StagedWireBytes)
		}
	}
	if mixed.MovedBlockBytes == 0 {
		t.Fatal("'mixed' scenario moved no blocks")
	}
	if mixed.PlannerWireBytes >= 2*mixed.MovedBlockBytes {
		t.Errorf("mixed: planner sent %d wire bytes for %d moved block bytes: a moved block crossed the wire more than once",
			mixed.PlannerWireBytes, mixed.MovedBlockBytes)
	}
}
