// Command acbench regenerates the paper's evaluation: every figure of
// "A Dynamic Accelerator-Cluster Architecture" (ICPP 2012) plus the
// extension experiments described in DESIGN.md, printed as aligned tables
// or CSV.
//
// Usage:
//
//	acbench                 # all experiments, tables
//	acbench -fig 5          # just Figure 5
//	acbench -fig extA       # the pool-utilization extension
//	acbench -format csv     # CSV output
//	acbench -quick          # reduced grids (smoke test)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dynacc/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", `experiment id: 5..11, fig5..fig11, extA, extB, or "all"`)
	format := flag.String("format", "table", "output format: table or csv")
	quick := flag.Bool("quick", false, "reduced parameter grids")
	batchJSON := flag.String("batching-json", "", "run the command-batching launch storm and write the report to this file")
	armJSON := flag.String("arm-json", "", "run the multi-tenant sharing workload and write the ARM's per-accelerator stats to this file")
	fleetJSON := flag.String("fleet-json", "", "run the 32-daemon/96-tenant fleet benchmark and write the engine-cost report to this file")
	heteroJSON := flag.String("hetero-json", "", "run the mixed-fleet QR comparison and write the per-class utilization report to this file")
	dataplaneJSON := flag.String("dataplane-json", "", "run the data-plane comparison (tree panel broadcast, redistribution planner) and write the report to this file")
	shards := flag.Int("shards", 1, "ARM shard count for -arm-json and -fleet-json workloads (<2 = single legacy ARM)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *fleetJSON != "" {
		cfg := bench.DefaultFleetConfig()
		cfg.Shards = *shards
		r, err := bench.WriteFleetJSON(*fleetJSON, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fl := r.Fleet
		fmt.Printf("fleet (%d daemons, %d tenants, %d ARM shard(s)): %d ops in %.0f ms wall, %.0f allocs/op, %.1f ops per virtual second\n",
			fl.Daemons, fl.Tenants, fl.Shards, fl.Ops, float64(fl.WallNS)/1e6, fl.PerOp, fl.OpsPerVirtualSec)
		for _, hp := range r.HotPaths {
			fmt.Printf("  %s: %.0f ms wall (%.2fx vs seed), %d allocs (%.2fx fewer than seed)\n",
				hp.Name, float64(hp.WallNS)/1e6, hp.WallSpeedup, hp.Allocs, hp.AllocRatio)
		}
		return
	}

	if *heteroJSON != "" {
		r, err := bench.WriteHeteroJSON(*heteroJSON, 4032, 128)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("hetero QR (%s, N=%d, NB=%d): classic %.1f ms, split-panel %.1f ms (%.2fx), panel on %s\n",
			r.Fleet, r.N, r.NB, 1e3*r.ClassicSecs, 1e3*r.HeteroSecs, r.Speedup, r.PanelClass)
		for _, c := range r.PerClass {
			fmt.Printf("  class %-6s: %d device(s), %d grant(s), busy %.3fs (%.1f%% of interval)\n",
				c.Class, c.Devices, c.Grants, c.BusySeconds, 100*c.Utilization)
		}
		return
	}

	if *dataplaneJSON != "" {
		r, err := bench.WriteDataplaneJSON(*dataplaneJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, b := range r.Broadcast {
			fmt.Printf("panel broadcast (%d GPUs, %.1f MiB): host loop %.2f ms, tree %.2f ms (%.2fx), host NIC %.1f -> %.1f MiB\n",
				b.GPUs, float64(b.PanelBytes)/(1<<20), 1e3*b.HostSecs, 1e3*b.TreeSecs, b.Speedup,
				float64(b.HostLoopNICBytes)/(1<<20), float64(b.TreeNICBytes)/(1<<20))
		}
		for _, rd := range r.Redist {
			fmt.Printf("redistribute %s (%d->%d GPUs, %d blocks, %d unchanged, %d moved block B): staged %d B, planner %d B, unchanged payload %d B\n",
				rd.Scenario, rd.FromGPUs, rd.ToGPUs, rd.Blocks, rd.Unchanged, rd.MovedBlockBytes,
				rd.StagedWireBytes, rd.PlannerWireBytes, rd.UnchangedPayloadBytes)
		}
		return
	}

	if *armJSON != "" {
		r, err := bench.WriteARMJSON(*armJSON, 3, 200, *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("sharing (%d tenants x %d ops, capacity %d, %d ARM shard(s)): %d session(s) on %d shared accelerator(s)\n",
			r.Tenants, r.OpsPerTenant, r.ShareCapacity, r.Shards, r.Sessions, r.SharedAccels)
		for _, a := range r.PerAccel {
			fmt.Printf("  ac%d (rank %d, %s): %d sessions, %d grants, busy %.1f%%\n",
				a.ID, a.Rank, a.State, a.Sessions, a.Grants, 100*a.Utilization)
		}
		return
	}

	if *batchJSON != "" {
		r, err := bench.WriteBatchingJSON(*batchJSON, 1000)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("launch storm (%d launches): %.0f ops/s unbatched, %.0f ops/s batched (%.1fx), wire messages %d -> %d (%.1fx fewer)\n",
			r.Launches, r.Unbatched.OpsPerSec, r.Batched.OpsPerSec, r.Speedup,
			r.Unbatched.WireMsgs, r.Batched.WireMsgs, r.MsgRatio)
		return
	}

	ids, err := resolve(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := bench.Options{Quick: *quick}
	gens := bench.Figures()
	for _, id := range ids {
		start := time.Now()
		f := gens[id](opts)
		switch *format {
		case "csv":
			fmt.Print(f.CSV())
		case "table":
			fmt.Print(f.Table())
			fmt.Printf("# generated in %v\n\n", time.Since(start).Round(time.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
			os.Exit(2)
		}
	}
}

func resolve(arg string) ([]string, error) {
	if arg == "all" {
		return bench.FigureOrder(), nil
	}
	id := strings.ToLower(arg)
	if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "ext") {
		id = "fig" + id
	}
	for _, known := range bench.FigureOrder() {
		if strings.EqualFold(known, id) {
			return []string{known}, nil
		}
	}
	return nil, fmt.Errorf("acbench: unknown experiment %q (have %s)", arg,
		strings.Join(bench.FigureOrder(), ", "))
}
