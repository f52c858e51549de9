package sim

// The simulator's reference stack: the linear issue scan and the
// one-cycle-per-pass clock the production stack (the indexed ready-ring
// scan of ring.go and the event-driven clock) must reproduce exactly.
// Production code reaches it only through Config.reference, which nothing
// outside this package's tests sets, and referenceIssue, which init below
// installs. The equivalence, differential and fuzz suites run every
// configuration on both stacks and compare the Stats; runReference and
// runReferenceGPU additionally assert that the reference side really ran
// the linear scan once per simulated cycle, so a hook that silently fell
// back to the production stack cannot make those suites vacuous.

import (
	"context"
	"math"
	"testing"

	"ltrf/internal/isa"
	"ltrf/internal/memtech"
	"ltrf/internal/workloads"
)

// referencePasses counts linear-scan issue passes across the package's
// (serially run) tests. Under the one-cycle clock a run makes exactly one
// pass per simulated cycle.
var referencePasses int64

func init() {
	referenceIssue = func(sm *SM) int {
		referencePasses++
		return sm.issueCycleScan()
	}
}

// withReference returns c switched to the reference stack.
func withReference(c Config) Config {
	c.reference = true
	return c
}

// runReference simulates c on the reference stack and fails the test
// unless the linear scan ran once for every simulated cycle.
func runReference(t *testing.T, label string, c Config, prog *isa.Program, cc *CompileCache) *Result {
	t.Helper()
	before := referencePasses
	res, err := RunWithCache(withReference(c), prog, cc)
	if err != nil {
		t.Fatalf("%s (reference): %v", label, err)
	}
	if passes := referencePasses - before; passes == 0 || passes != res.Cycles {
		t.Fatalf("%s: reference run made %d linear-scan passes over %d cycles, want one per cycle",
			label, passes, res.Cycles)
	}
	return res
}

// runReferenceGPU is runReference for the multi-SM lockstep: every SM
// makes one linear-scan pass per cycle it simulates.
func runReferenceGPU(t *testing.T, label string, c Config, nSMs int, prog *isa.Program) *GPUResult {
	t.Helper()
	before := referencePasses
	res, err := RunGPU(withReference(c), nSMs, prog)
	if err != nil {
		t.Fatalf("%s (reference): %v", label, err)
	}
	var cycles int64
	for _, st := range res.PerSM {
		cycles += st.Cycles
	}
	if passes := referencePasses - before; passes == 0 || passes != cycles {
		t.Fatalf("%s: reference run made %d linear-scan passes over %d SM-cycles, want one per cycle",
			label, passes, cycles)
	}
	return res
}

// step advances the SM by one cycle, returning false when the kernel has
// finished or a budget is exhausted — the one-cycle clock's unit of
// progress, with whichever issue scan the configuration selects.
func (sm *SM) step() bool {
	if !sm.runnable() {
		return false
	}
	sm.advanceTo(sm.cycle+1, sm.pass())
	return true
}

// issueCycleScan is the linear reference scan: every active warp is
// examined round-robin until IssueWidth instructions issue. Warps blocked
// on a long-latency operand are descheduled (two-level scheduling); warps
// at prefetch-unit boundaries execute their PREFETCH instead of issuing.
// Along the way it maintains nextWake — the minimum over every blocked
// warp's wakeup time. It never reads the ready ring, so the ring
// bookkeeping the shared pass code keeps up does not affect it.
func (sm *SM) issueCycleScan() int {
	sm.nextWake = int64(math.MaxInt64)
	sm.collMin = 0
	n := len(sm.active)
	if n == 0 {
		return 0
	}
	issued := 0
	removed := 0 // active entries whose warp left stateActive this cycle

	now := sm.cycle
	width := sm.cfg.IssueWidth
	idx := sm.rr % n
	for k := 0; k < n && issued < width; k++ {
		wid := sm.active[idx]
		idx++
		if idx == n {
			idx = 0
		}
		w := sm.warps[wid]
		if w.state != stateActive {
			continue
		}
		if w.readyAt > now {
			sm.wakeAt(w.readyAt)
			continue
		}
		in := &sm.prog.Instrs[w.pc]
		m := &sm.meta[w.pc]

		// PREFETCH at unit boundary.
		if sm.part != nil {
			if uid := sm.part.UnitID(w.pc); uid != w.Regs.CurUnit {
				stall := sm.rf.OnUnitEnter(sm.cycle, w.Regs, uid, sm.part.Units[uid].WorkingSet)
				if stall <= sm.cycle {
					stall = sm.cycle + 1
				}
				sm.st.PrefetchStallCycles += stall - sm.cycle
				w.readyAt = stall
				continue
			}
		}

		// Scoreboard: a warp blocked on a load past the threshold is
		// descheduled when some inactive warp could use the slot sooner.
		if ready, onLoad := w.operandsReadyAt(m, sm.cycle); ready > sm.cycle {
			if sm.twoLevel() && onLoad && ready-sm.cycle >= sm.cfg.DeactivateThreshold {
				if sm.hasEarlierCandidate(ready) {
					sm.deactivate(w, ready)
					removed++
				} else {
					// Deactivation hinges on an earlier candidate appearing
					// in the pool, so re-examine the warp every pass.
					sm.wakeAt(ready)
				}
			} else {
				// The refusal is permanent: the gap to the threshold only
				// shrinks and a pending load only clears, so the warp can
				// neither issue nor deactivate before `ready`. Parking it
				// on readyAt skips exactly the passes that would re-derive
				// this verdict.
				w.readyAt = ready
				sm.wakeAt(ready)
			}
			continue
		}

		// Structural hazard: instructions with register sources need a
		// free operand collector.
		col := -1
		if m.nsrc > 0 {
			if col = sm.freeCollector(); col == -1 {
				// Claims later in the pass can lower the true minimum, but
				// any claim makes the pass non-idle, and nextWake is only
				// consumed after idle passes.
				if sm.collMin == 0 {
					sm.collMin = sm.nextCollectorFree()
				}
				sm.wakeAt(sm.collMin)
				continue
			}
		}

		// Barrier.
		if in.Op == isa.OpBar {
			w.advance(sm.prog.Instrs, m)
			w.retired++
			sm.instrs++
			sm.st.CtrlOps++
			w.state = stateBarrier
			sm.ctaBarrier[w.cta]++
			removed++
			sm.maybeReleaseBarrier(int(w.cta))
			issued++
			continue
		}

		sm.issueInstr(w, m, col)
		issued++
		if w.state == stateFinished {
			sm.finished++
			sm.ctaFin[w.cta]++
			w.Regs.Reset(sm.cfg.RegsPerInterval)
			removed++
			sm.maybeReleaseBarrier(int(w.cta))
		}
	}

	if removed > 0 {
		sm.removeActiveScan()
	}
	// Greedy-then-oldest arbitration.
	if len(sm.active) == 0 {
		sm.rr = 0
	} else if issued == 0 {
		sm.rr = (sm.rr + 1) % len(sm.active)
	} else {
		sm.rr = sm.rr % len(sm.active)
	}
	return issued
}

// removeActiveScan is the reference compaction: drop every warp that left
// stateActive, keeping the order of the rest.
func (sm *SM) removeActiveScan() {
	out := sm.active[:0]
	for _, wid := range sm.active {
		if sm.warps[wid].state == stateActive {
			out = append(out, wid)
		}
	}
	sm.active = out
}

// TestReferenceStackRuns pins the hook itself: a reference run takes the
// linear scan once per simulated cycle, idle cycles included, and a
// production run never touches it.
func TestReferenceStackRuns(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	c.LatencyX = 6.3
	c.MaxInstrs = 4000
	c.MaxCycles = CycleCap(c.MaxInstrs)
	kernel := streamKernel(8, 200)

	ref := runReference(t, "ltrf-stream", c, kernel, nil)
	if ref.IdleCycles == 0 {
		t.Fatal("reference run had no idle cycles; the one-cycle clock went unexercised")
	}
	before := referencePasses
	if _, err := Run(c, kernel); err != nil {
		t.Fatal(err)
	}
	if referencePasses != before {
		t.Errorf("production run made %d reference passes, want 0", referencePasses-before)
	}
}

// BenchmarkSimulatorThroughputCycleAccurate runs the reference stack at the
// root package's BenchmarkSimulatorThroughput/high-latency point (BL, Table
// 2 config #7, 6.3x latency, sgemm), so the ratio of the two measures what
// the event-driven clock and the indexed scan buy.
func BenchmarkSimulatorThroughputCycleAccurate(b *testing.B) {
	w, err := workloads.ByName("sgemm")
	if err != nil {
		b.Fatal(err)
	}
	kernel := w.Build(workloads.UnrollMaxwell)
	c := DefaultConfig(DesignBL)
	c.Tech = memtech.MustConfig(7)
	c.LatencyX = 6.3
	c.MaxInstrs = 30000
	c.MaxCycles = CycleCap(c.MaxInstrs)
	c = withReference(c)
	cc := NewCompileCache()
	ctx := context.Background()
	if _, err := RunWithCacheCtx(ctx, c, kernel, cc); err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunWithCacheCtx(ctx, c, kernel, cc)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
