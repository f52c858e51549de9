package main

import (
	"fmt"
	"time"

	"ltrf/internal/core"
	"ltrf/internal/memsys"
	"ltrf/internal/regalloc"
	"ltrf/internal/sim"
)

// staticRepeats is how many times the compile-pipeline probes repeat.
const staticRepeats = 5

// replayAccesses bounds the memory accesses replayed per configuration.
const replayAccesses = 40_000

// probeStatic times the compile pipeline and the memory hierarchy on the
// simulate workload's kernels and configurations: CompileCache.Compile on
// a cold cache, regalloc.Allocate, core.FormRegisterIntervals, and a
// replay of each kernel's memory instructions through Hierarchy.Access.
func probeStatic(b *bench) error {
	b.layers.setSource("static probe", "")
	var s simulate
	if _, err := s.setup(b, true); err != nil {
		return fmt.Errorf("static probe: %w", err)
	}
	for rep := 0; rep < staticRepeats; rep++ {
		for i, c := range simCases {
			cfg := s.ref[i].Config
			k := s.kernels[i]
			t0 := time.Now()
			info, err := sim.NewCompileCache().Compile(&cfg, k)
			b.layers.observe("sim.compile_ms", ms(time.Since(t0)))
			b.op(err != nil)
			if err != nil {
				return fmt.Errorf("compile %s: %w", c.Name, err)
			}
			t0 = time.Now()
			_, _, err = regalloc.Allocate(k, info.RegCap)
			b.layers.observe("regalloc.allocate_ms", ms(time.Since(t0)))
			b.op(err != nil)
			t0 = time.Now()
			_, err = core.FormRegisterIntervals(info.Prog, cfg.RegsPerInterval)
			b.layers.observe("core.intervals_ms", ms(time.Since(t0)))
			b.op(err != nil)
			if rep == 0 {
				replayMemory(b, &cfg, info)
			}
		}
	}
	return nil
}

// replayMemory drives a kernel's memory instructions through a fresh
// hierarchy, warp by warp and iteration by iteration.
func replayMemory(b *bench, cfg *sim.Config, info sim.CompileInfo) {
	var pcs []int
	for pc := range info.Prog.Instrs {
		if info.Prog.Instrs[pc].Mem != nil {
			pcs = append(pcs, pc)
		}
	}
	if len(pcs) == 0 || info.Warps == 0 {
		return
	}
	h := memsys.NewHierarchy(cfg.Mem)
	defer h.Release()
	ctas := cfg.CTAs()
	calls := 0
	now := int64(0)
	t0 := time.Now()
	for iter := int64(0); calls < replayAccesses; iter++ {
		for w := 0; w < info.Warps; w++ {
			for _, pc := range pcs {
				h.Access(now, &info.Prog.Instrs[pc], w, w*ctas/info.Warps, pc, iter)
				now += 2
				calls++
			}
		}
	}
	b.layers.add("memsys.replay_ns", float64(time.Since(t0)))
	b.layers.add("memsys.replay_calls", float64(calls))
	b.op(false)
}
