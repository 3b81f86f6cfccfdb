package main

// The -profile mode: run the linial-10k workload (the simcore suite's
// algorithm substrate) in a loop under the CPU profiler for a fixed wall
// budget, then snapshot the heap, writing cpu.pprof and heap.pprof into
// the chosen directory. `make profile` wraps it, and CI uploads the
// directory as an artifact on pull requests, so "why did this get slower"
// always has a flame graph attached:
//
//	go tool pprof -http=:0 profiles/cpu.pprof

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/gen"
	"repro/internal/linial"
	"repro/internal/sim"
)

func runProfile(ctx context.Context, dir string, dur time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g, err := gen.NearRegular(10_000, 8, 2017)
	if err != nil {
		return err
	}

	cpuPath := filepath.Join(dir, "cpu.pprof")
	cpuF, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	defer cpuF.Close()
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "colorbench: profiling the linial-10k workload for %v...\n", dur)
	ops := 0
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			break
		}
		if _, err := linial.Reduce(ctx, sim.Sequential, sim.NewTopology(g), int64(g.N())); err != nil {
			pprof.StopCPUProfile()
			return err
		}
		ops++
	}
	pprof.StopCPUProfile()

	heapPath := filepath.Join(dir, "heap.pprof")
	heapF, err := os.Create(heapPath)
	if err != nil {
		return err
	}
	defer heapF.Close()
	runtime.GC() // flush dead objects so the profile shows live retention
	if err := pprof.WriteHeapProfile(heapF); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "colorbench: %d ops profiled; wrote %s and %s\n", ops, cpuPath, heapPath)
	return nil
}
