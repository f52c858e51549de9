package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	_ "ltrf/internal/faultinject"
	"ltrf/internal/sim"
	"ltrf/internal/store"
	"ltrf/internal/workloads"
)

// openTestStore opens a store at dir with the engine's live schema version,
// failing the test on error.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{Version: StoreVersion()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quickPoint is a cheap deterministic point for store round-trip tests.
func quickPoint() Point {
	o := Options{Quick: true}
	return o.point(sim.DesignLTRF, 1, 1.0, "vectoradd")
}

// TestEngineStoreRestartServesWithoutResim is the crash-restart criterion:
// a second engine on the same directory (a "restarted server") serves the
// point from disk — zero simulations — with a byte-identical result.
func TestEngineStoreRestartServesWithoutResim(t *testing.T) {
	dir := t.TempDir()
	p := quickPoint()

	e1 := NewEngineWithStore(openTestStore(t, dir))
	r1, err := e1.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Sims() != 1 || e1.StoreHits() != 0 {
		t.Fatalf("cold eval: sims=%d hits=%d, want 1/0", e1.Sims(), e1.StoreHits())
	}

	// "Restart": fresh engine, fresh store handle, same directory.
	e2 := NewEngineWithStore(openTestStore(t, dir))
	r2, err := e2.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Sims() != 0 {
		t.Errorf("restarted engine re-simulated (%d sims), want disk hit", e2.Sims())
	}
	if e2.StoreHits() != 1 {
		t.Errorf("restarted engine store hits = %d, want 1", e2.StoreHits())
	}
	if !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Errorf("restored stats differ from computed:\n got %+v\nwant %+v", r2.Stats, r1.Stats)
	}
	if r1.Kernel != r2.Kernel || r1.Demand != r2.Demand || r1.Capacity != r2.Capacity {
		t.Errorf("restored kernel/demand/capacity differ: got (%+v,%d,%d) want (%+v,%d,%d)",
			r2.Kernel, r2.Demand, r2.Capacity, r1.Kernel, r1.Demand, r1.Capacity)
	}
}

// TestEngineStoreVersionBump asserts a schema-version change makes old
// entries unreachable (recompute) instead of wrongly decoded.
func TestEngineStoreVersionBump(t *testing.T) {
	dir := t.TempDir()
	p := quickPoint()

	e1 := NewEngineWithStore(openTestStore(t, dir))
	if _, err := e1.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Options{Version: "ltrf-exp/v999"})
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngineWithStore(s2)
	if _, err := e2.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if e2.Sims() != 1 {
		t.Errorf("version-bumped engine sims = %d, want 1 (recompute)", e2.Sims())
	}
}

// TestEngineStoreCorruptionRecovers flips bytes in the persisted record and
// asserts the restarted engine quarantines it, recomputes, and heals the
// store — the next restart hits disk again.
func TestEngineStoreCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	p := quickPoint()

	e1 := NewEngineWithStore(openTestStore(t, dir))
	want, err := e1.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	path := e1.Store().Path(p.canon().storeKey())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	e2 := NewEngineWithStore(s2)
	got, err := e2.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Sims() != 1 {
		t.Errorf("corrupt entry not recomputed: sims=%d, want 1", e2.Sims())
	}
	if s2.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", s2.Quarantined())
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("recomputed stats differ: got %+v want %+v", got.Stats, want.Stats)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(ents) != 1 {
		t.Errorf("quarantine dir entries = %v (err %v), want exactly 1", ents, err)
	}

	// Healed: a third engine serves from the rewritten record.
	e3 := NewEngineWithStore(openTestStore(t, dir))
	if _, err := e3.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if e3.Sims() != 0 {
		t.Errorf("store not healed after recompute: sims=%d, want 0", e3.Sims())
	}
}

// TestEngineStoreWriteFailureDegrades asserts a dead disk (persistent
// ENOSPC) degrades the engine to compute-only: evals still succeed, the
// failure is counted, and there is no retry storm.
func TestEngineStoreWriteFailureDegrades(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{
		Version:  StoreVersion(),
		Injector: &store.Faults{OnWrite: store.ENOSPCAlways()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWithStore(s)
	if _, err := e.Eval(context.Background(), quickPoint()); err != nil {
		t.Fatalf("eval must succeed when only persistence fails: %v", err)
	}
	if e.StoreErrors() == 0 {
		t.Error("store write failure not counted")
	}
	if s.Retries() != 0 {
		t.Errorf("ENOSPC retried %d times, want 0 (not transient)", s.Retries())
	}
}

// TestEngineCancellationPrompt asserts Eval returns the context error
// promptly when cancelled mid-simulation, instead of running the point to
// completion first. The hung design sleeps on every operand read, so an
// uncancelled run takes many seconds; a run that honours the deadline
// returns within one cancel-poll window.
func TestEngineCancellationPrompt(t *testing.T) {
	e := NewEngine()
	p := Point{Design: sim.Design("fault-hang"), Tech: 1, LatencyX: 1,
		Workload: "vectoradd", Unroll: 4, Budget: 100_000}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Eval(ctx, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The cancel poll runs every 1024 simulator passes; with the hung
	// design's per-read sleep one window is a few hundred ms. 3s catches
	// only run-to-completion bugs (an uncancelled run takes far longer).
	if elapsed > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEngineCancelledEvalNotMemoized asserts a cancellation is not sticky:
// the same point evaluated again under a live context succeeds.
func TestEngineCancelledEvalNotMemoized(t *testing.T) {
	e := NewEngine()
	p := quickPoint()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead
	if _, err := e.Eval(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := e.Eval(context.Background(), p); err != nil {
		t.Fatalf("point poisoned by earlier cancellation: %v", err)
	}
}

// TestEnginePanicIsolation asserts a panicking design surfaces as a typed
// PanicError for that point only — the engine keeps serving others — and
// is counted as a failure.
func TestEnginePanicIsolation(t *testing.T) {
	e := NewEngine()
	bad := Point{Design: sim.Design("fault-panic"), Tech: 1, LatencyX: 1,
		Workload: "vectoradd", Unroll: 4, Budget: 2_000}

	_, err := e.Eval(context.Background(), bad)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value == "" || len(pe.Stack) == 0 {
		t.Errorf("PanicError missing value/stack: %+v", pe)
	}
	if e.Failures() != 1 {
		t.Errorf("failures = %d, want 1", e.Failures())
	}
	if e.FirstError() == nil {
		t.Error("FirstError() = nil after a panic")
	}

	// Isolation: a healthy point on the same engine still evaluates.
	if _, err := e.Eval(context.Background(), quickPoint()); err != nil {
		t.Fatalf("healthy point failed after panic: %v", err)
	}
}

// TestGoldenByteIdenticalWithStore asserts the store changes nothing about
// rendered output: figure9 quick tables are byte-identical across (a) a
// memory-only engine, (b) a cold store-backed engine, and (c) a fresh
// engine reading the now-warm store — the decode path.
func TestGoldenByteIdenticalWithStore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(eng *Engine) string {
		t.Helper()
		tab, err := Figure9(Options{Quick: true, Workloads: []string{"sgemm", "btree"}, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}

	dir := t.TempDir()
	memory := run(NewEngine())
	cold := run(NewEngineWithStore(openTestStore(t, dir)))
	warmEng := NewEngineWithStore(openTestStore(t, dir))
	warm := run(warmEng)

	if memory != cold {
		t.Errorf("store-backed output differs from memory-only:\n--- memory ---\n%s\n--- store ---\n%s", memory, cold)
	}
	if memory != warm {
		t.Errorf("store-decoded output differs from computed:\n--- memory ---\n%s\n--- warm ---\n%s", memory, warm)
	}
	if warmEng.Sims() != 0 {
		t.Errorf("warm store run re-simulated %d points, want 0", warmEng.Sims())
	}
}

// TestStoreKeysPinned pins the store address of points as a client states
// them: Resolve, then canon, then storeKey. A respelling of any axis that
// moved one of these strings would orphan every stored result under it.
func TestStoreKeysPinned(t *testing.T) {
	const def = "design=BL;tech=1;latx=1;wl=sgemm;unroll=3;budget=40000;rpi=0;aw=0"
	for _, c := range []struct {
		name string
		p    Point
		want string
	}{
		{"defaults", Point{}, def},
		{"design", Point{Design: "LTRF"}, "design=LTRF;tech=1;latx=1;wl=sgemm;unroll=3;budget=40000;rpi=0;aw=0"},
		{"workload", Point{Workload: "btree"}, "design=BL;tech=1;latx=1;wl=btree;unroll=3;budget=40000;rpi=0;aw=0"},
		{"tech", Point{Tech: 7}, "design=BL;tech=7;latx=1;wl=sgemm;unroll=3;budget=40000;rpi=0;aw=0"},
		{"latency", Point{LatencyX: 6.3}, "design=BL;tech=1;latx=6.3;wl=sgemm;unroll=3;budget=40000;rpi=0;aw=0"},
		{"budget", Point{Budget: 12_000}, "design=BL;tech=1;latx=1;wl=sgemm;unroll=3;budget=12000;rpi=0;aw=0"},
		{"regs per interval", Point{RegsPerInterval: 32}, "design=BL;tech=1;latx=1;wl=sgemm;unroll=3;budget=40000;rpi=32;aw=0"},
		{"active warps", Point{ActiveWarps: 4}, "design=BL;tech=1;latx=1;wl=sgemm;unroll=3;budget=40000;rpi=0;aw=4"},
		{"scheduler", Point{Scheduler: sim.SchedStatic}, def + ";sched=static"},
		{"prefetch", Point{Prefetch: "stride"}, def + ";pref=stride"},
		{"ctas", Point{CTAs: 2}, def + ";ctas=2"},
		{"every axis", Point{Design: "LTRF", Tech: 7, LatencyX: 6.3, Workload: "btree", Budget: 12_000,
			RegsPerInterval: 32, ActiveWarps: 4, Scheduler: sim.SchedFlat, Prefetch: "cta", CTAs: 2},
			"design=LTRF;tech=7;latx=6.3;wl=btree;unroll=3;budget=12000;rpi=32;aw=4;sched=flat;pref=cta;ctas=2"},
		{"ltrf+ spelling", Point{Design: "ltrf+"}, "design=LTRF+;tech=1;latx=1;wl=sgemm;unroll=3;budget=40000;rpi=0;aw=0"},
		{"off spelling", Point{Prefetch: "off"}, def},
		{"twolevel spelling", Point{Scheduler: sim.SchedTwoLevel}, def},
		{"one cta", Point{CTAs: 1}, def},
		{"default regs per interval", Point{RegsPerInterval: 16}, def},
	} {
		p := c.p
		if p.Design == "" {
			p.Design = sim.DesignBL
		}
		if p.Workload == "" {
			p.Workload = "sgemm"
		}
		p.Unroll = workloads.UnrollMaxwell
		r, err := p.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := r.canon().storeKey(); got != c.want {
			t.Errorf("%s: store key\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
