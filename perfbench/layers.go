package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
	"ltrf/internal/regfile"
	"ltrf/internal/sim"
)

// layers records the traced run's per-layer observations: samples (one
// value per timed call) and sums (quantities whose ratio is the metric).
// Every observation is made from the benchmark's own code, around calls
// into a layer's public functions.
//
// A key keeps the observations of the first measurement that fed it: the
// traced workload's own traffic comes first, and a probe of another
// workload only fills in the layers the traced workload did not reach.
type layers struct {
	mu      sync.Mutex
	samples map[string][]float64
	sums    map[string]float64
	from    map[string]source // the measurement that fed each key

	now     source  // the measurement running now
	clockNs float64 // cost of one timer read pair, subtracted per timed call
}

// source names a measurement: the workload (or probe) and, for the report,
// which part of it.
type source struct{ group, phase string }

func (l *layers) setSource(group, phase string) {
	l.mu.Lock()
	l.now = source{group, phase}
	l.mu.Unlock()
}

func newLayers() *layers {
	return &layers{
		samples: map[string][]float64{},
		sums:    map[string]float64{},
		from:    map[string]source{},
		clockNs: clockCost(),
	}
}

func (l *layers) observe(key string, v float64) {
	l.mu.Lock()
	if l.accept(key) {
		l.samples[key] = append(l.samples[key], v)
	}
	l.mu.Unlock()
}

func (l *layers) add(key string, v float64) {
	l.mu.Lock()
	if l.accept(key) {
		l.sums[key] += v
	}
	l.mu.Unlock()
}

// accept reports whether the running measurement may feed key.
func (l *layers) accept(key string) bool {
	src, ok := l.from[key]
	if !ok {
		l.from[key] = l.now
		return true
	}
	return src.group == l.now.group
}

// recordSim accumulates one simulation's host time and simulated counters.
// Untraced runs time the plain design; traced runs the delegating one.
func (l *layers) recordSim(res *sim.Result, d time.Duration, traced bool) {
	st := &res.Stats
	if traced {
		l.add("sim.traced_wall_ns", float64(d))
		l.add("sim.traced_instrs", float64(st.Instrs))
	} else {
		l.add("sim.wall_ns", float64(d))
		l.add("sim.instrs", float64(st.Instrs))
		l.add("sim.cycles", float64(st.Cycles))
		l.add("sim.idle_cycles", float64(st.IdleCycles))
	}
	l.add("rf.cache_reads", float64(st.RF.CacheReads))
	l.add("rf.cache_read_hits", float64(st.RF.CacheReadHits))
	m := &st.Mem
	l.add("mem.instrs", float64(st.Instrs))
	l.add("mem.l1_accesses", float64(m.L1Accesses))
	l.add("mem.l1_hits", float64(m.L1Hits))
	l.add("mem.l2_accesses", float64(m.L2Accesses))
	l.add("mem.l2_hits", float64(m.L2Hits))
	l.add("mem.dram", float64(m.DRAMAccesses))
	l.add("mem.pref_issued", float64(m.PrefIssued))
	l.add("mem.pref_useful", float64(m.PrefUseful))
}

// layerMetric is one per-layer metric: its unit and how it is computed
// from the recorded observations, with the number of samples behind it.
type layerMetric struct {
	Name string
	Unit string
	calc func(l *layers) (value float64, n int)
}

// heaviestExperiments are the experiments whose run time is reported
// (the five slowest at quick budgets).
var heaviestExperiments = []string{"figure11", "pipesweep", "prefsweep", "designsweep", "figure14"}

func layerMetrics() []layerMetric {
	ratio := func(num, den string) func(l *layers) (float64, int) {
		return func(l *layers) (float64, int) { return l.sums[num] / l.sums[den], int(l.sums[den]) }
	}
	med := func(key string) func(l *layers) (float64, int) {
		return func(l *layers) (float64, int) { return median(l.samples[key]), len(l.samples[key]) }
	}
	sum := func(key string) func(l *layers) (float64, int) {
		return func(l *layers) (float64, int) { return l.sums[key], 1 }
	}
	// rfNs estimates the time spent inside the subsystem: the sampled
	// per-call mean scaled to every call, plus every unit entry, each with
	// the timer's own cost taken off.
	rfNs := func(l *layers) float64 {
		perCall := float64(rfTimes.sampledNs.Load())/float64(rfTimes.sampled.Load()) - l.clockNs
		unit := float64(rfTimes.unitNs.Load()) - l.clockNs*float64(rfTimes.unitCalls.Load())
		return perCall*float64(rfTimes.calls.Load()) + unit
	}
	rfCalls := func() float64 { return float64(rfTimes.calls.Load() + rfTimes.unitCalls.Load()) }
	ms := []layerMetric{
		{"sim.ns_per_instr", "ns", ratio("sim.wall_ns", "sim.instrs")},
		{"sim.ns_per_cycle", "ns", ratio("sim.wall_ns", "sim.cycles")},
		{"sim.idle_cycle_ratio", "ratio", ratio("sim.idle_cycles", "sim.cycles")},
		{"sim.compile_ms", "ms", med("sim.compile_ms")},
		{"regfile.time_share", "ratio", func(l *layers) (float64, int) {
			return rfNs(l) / l.sums["sim.traced_wall_ns"], int(rfTimes.sampled.Load())
		}},
		{"regfile.ns_per_call", "ns", func(l *layers) (float64, int) {
			return rfNs(l) / rfCalls(), int(rfTimes.sampled.Load())
		}},
		{"regfile.unit_enter_ns", "ns", func(l *layers) (float64, int) {
			n := rfTimes.unitCalls.Load()
			return float64(rfTimes.unitNs.Load())/float64(n) - l.clockNs, int(n)
		}},
		{"regfile.calls_per_instr", "calls/instr", func(l *layers) (float64, int) {
			return rfCalls() / l.sums["sim.traced_instrs"], int(l.sums["sim.traced_instrs"])
		}},
		{"regfile.cache_read_hit_ratio", "ratio", ratio("rf.cache_read_hits", "rf.cache_reads")},
		{"memsys.access_ns", "ns", ratio("memsys.replay_ns", "memsys.replay_calls")},
		{"memsys.l1_hit_ratio", "ratio", ratio("mem.l1_hits", "mem.l1_accesses")},
		{"memsys.l2_hit_ratio", "ratio", ratio("mem.l2_hits", "mem.l2_accesses")},
		{"memsys.dram_per_kinstr", "bursts/kinstr", func(l *layers) (float64, int) {
			return 1000 * l.sums["mem.dram"] / l.sums["mem.instrs"], int(l.sums["mem.instrs"])
		}},
		{"memsys.pref_accuracy", "ratio", ratio("mem.pref_useful", "mem.pref_issued")},
		{"regalloc.allocate_ms", "ms", med("regalloc.allocate_ms")},
		{"core.intervals_ms", "ms", med("core.intervals_ms")},
	}
	for _, id := range heaviestExperiments {
		ms = append(ms, layerMetric{"exp.run_s." + id, "s", med("exp.run_s." + id)})
	}
	ms = append(ms, []layerMetric{
		{"exp.sims", "count", med("exp.sims")},
		{"exp.compiles", "count", med("exp.compiles")},
		{"exp.eval_memo_us", "us", med("exp.eval_memo_us")},
		{"exp.eval_store_us", "us", med("exp.eval_store_us")},
		{"store.get_us", "us", med("store.get_us")},
		{"store.put_us", "us", med("store.put_us")},
		{"store.lease_us", "us", med("store.lease_us")},
		{"store.lease_waits", "count", sum("store.lease_waits")},
		{"store.retries", "count", sum("store.retries")},
		{"server.handler_us", "us", med("server.handler_us")},
		{"server.client_us", "us", func(l *layers) (float64, int) {
			rtt := l.samples["server.rtt_us"]
			return median(rtt) - median(l.samples["server.handler_us"]), len(rtt)
		}},
		{"server.shed", "count", sum("server.shed")},
		{"server.sweep_ttfr_ms", "ms", med("server.sweep_ttfr_ms")},
		{"trace.overhead_pct", "%", med("trace.overhead_pct")},
	}...)
	return ms
}

// metrics computes every per-layer metric; a metric without the
// observations it needs is an error.
func (l *layers) metrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		v, n := m.calc(l)
		if n == 0 || v != v {
			return nil, fmt.Errorf("per-layer metric %s: %w", m.Name, errNoSamples)
		}
		out[m.Name] = metric{v, m.Unit}
	}
	return out, nil
}

func (l *layers) print(w io.Writer) {
	fmt.Fprintf(w, "per-layer metrics (timer cost %.1f ns subtracted per timed regfile call; 1 in %d per-instruction calls timed):\n", l.clockNs, rfSampleEvery)
	for _, m := range layerMetrics() {
		v, n := m.calc(l)
		src := l.from[m.key()]
		fmt.Fprintf(w, "  %-30s %14.6g %-13s n=%-9d from %s %s\n", m.Name, v, m.Unit, n, src.group, src.phase)
	}
	for _, k := range sortedKeys(l.samples) {
		if strings.HasPrefix(k, "exp.run_s.") {
			fmt.Fprintf(w, "  %-30s %14.6g s (n=%d)\n", k, median(l.samples[k]), len(l.samples[k]))
		}
	}
}

// key names the observation a metric's source is reported under.
func (m layerMetric) key() string {
	switch {
	case m.Name == "regfile.cache_read_hit_ratio":
		return "rf.cache_reads"
	case strings.HasPrefix(m.Name, "regfile."):
		return "sim.traced_wall_ns"
	case strings.HasPrefix(m.Name, "sim.") && m.Name != "sim.compile_ms":
		return "sim.wall_ns"
	case strings.HasPrefix(m.Name, "memsys.") && m.Name != "memsys.access_ns":
		return "mem.instrs"
	case m.Name == "memsys.access_ns":
		return "memsys.replay_ns"
	case m.Name == "server.client_us":
		return "server.rtt_us"
	}
	return m.Name
}

// clockCost measures the median duration a timer reports for an empty
// interval.
func clockCost() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}

// rfTiming accumulates the delegating design's call counts and sampled
// call times.
type rfTiming struct {
	calls, sampled, sampledNs atomic.Int64
	unitCalls, unitNs         atomic.Int64
}

// rfTimes is fed by every delegating subsystem in the process.
var rfTimes rfTiming

// rfSampleEvery is the share of per-instruction calls (ReadOperands,
// WriteResult, OnActivate, OnDeactivate) the delegating design times: one
// in rfSampleEvery. Timing every call would cost more than most calls do.
// OnUnitEnter, a hundred times rarer and dearer, is timed every time.
const rfSampleEvery = 16

// tracedPrefix names the hidden delegating copy of a design.
const tracedPrefix = "bench:"

var registerTraced sync.Once

// tracedDesign returns the hidden delegating copy of d, registering a copy
// of every design in simCases on first use. A copy has the real design's
// descriptor with New wrapped, so the simulator sees the same behaviour
// predicates and hooks and only the subsystem calls are timed.
func tracedDesign(d sim.Design) sim.Design {
	registerTraced.Do(func() {
		seen := map[string]bool{}
		for _, c := range simCases {
			desc, err := regfile.Lookup(c.Opts.Design.Name())
			if err != nil || seen[desc.Name] {
				continue // an unknown design fails when simulated
			}
			seen[desc.Name] = true
			inner := desc.New
			desc.Name = tracedPrefix + desc.Name
			desc.Hidden = true
			desc.New = func(ctx regfile.BuildContext) (regfile.Subsystem, error) {
				s, err := inner(ctx)
				if err != nil {
					return nil, err
				}
				return &timedRF{Subsystem: s}, nil
			}
			regfile.Register(desc)
		}
	})
	return sim.Design(tracedPrefix + d.Name())
}

// timedRF delegates to a real subsystem, counting every call and timing a
// sample of them. One simulation owns it, so its counters are plain; they
// are added to rfTimes when the simulator reads the subsystem's Stats at
// the end of the run.
type timedRF struct {
	regfile.Subsystem
	calls, sampled, sampledNs int64
	unitCalls, unitNs         int64
}

// sample reports whether this call is one of the timed ones.
func (t *timedRF) sample() bool {
	t.calls++
	return t.calls%rfSampleEvery == 0
}

func (t *timedRF) record(t0 time.Time) {
	t.sampledNs += int64(time.Since(t0))
	t.sampled++
}

func (t *timedRF) ReadOperands(now int64, w *regfile.WarpRegs, srcs []isa.Reg) int64 {
	if !t.sample() {
		return t.Subsystem.ReadOperands(now, w, srcs)
	}
	t0 := time.Now()
	defer t.record(t0)
	return t.Subsystem.ReadOperands(now, w, srcs)
}

func (t *timedRF) WriteResult(now int64, w *regfile.WarpRegs, dst isa.Reg) int64 {
	if !t.sample() {
		return t.Subsystem.WriteResult(now, w, dst)
	}
	t0 := time.Now()
	defer t.record(t0)
	return t.Subsystem.WriteResult(now, w, dst)
}

func (t *timedRF) OnActivate(now int64, w *regfile.WarpRegs) int64 {
	if !t.sample() {
		return t.Subsystem.OnActivate(now, w)
	}
	t0 := time.Now()
	defer t.record(t0)
	return t.Subsystem.OnActivate(now, w)
}

func (t *timedRF) OnDeactivate(now int64, w *regfile.WarpRegs) int64 {
	if !t.sample() {
		return t.Subsystem.OnDeactivate(now, w)
	}
	t0 := time.Now()
	defer t.record(t0)
	return t.Subsystem.OnDeactivate(now, w)
}

func (t *timedRF) OnUnitEnter(now int64, w *regfile.WarpRegs, unitID int, ws bitvec.Vector) int64 {
	t0 := time.Now()
	r := t.Subsystem.OnUnitEnter(now, w, unitID, ws)
	t.unitNs += int64(time.Since(t0))
	t.unitCalls++
	return r
}

// Stats publishes the counters (the simulator reads Stats once, when the
// run ends) and delegates.
func (t *timedRF) Stats() *regfile.Stats {
	rfTimes.calls.Add(t.calls)
	rfTimes.sampled.Add(t.sampled)
	rfTimes.sampledNs.Add(t.sampledNs)
	rfTimes.unitCalls.Add(t.unitCalls)
	rfTimes.unitNs.Add(t.unitNs)
	t.calls, t.sampled, t.sampledNs, t.unitCalls, t.unitNs = 0, 0, 0, 0, 0
	return t.Subsystem.Stats()
}

// storeTap is a pass-through store.Injector that records the keys the
// store reads and writes, for replaying store calls in isolation.
type storeTap struct {
	mu            sync.Mutex
	reads, writes []string
}

func (s *storeTap) BeforeRead(key string) error {
	s.mu.Lock()
	s.reads = append(s.reads, key)
	s.mu.Unlock()
	return nil
}

func (s *storeTap) BeforeWrite(key string) error {
	s.mu.Lock()
	s.writes = append(s.writes, key)
	s.mu.Unlock()
	return nil
}

func (s *storeTap) MutateWrite(key string, data []byte) []byte { return data }

func (s *storeTap) reset() {
	s.mu.Lock()
	s.reads, s.writes = nil, nil
	s.mu.Unlock()
}

func (s *storeTap) keys() (reads, writes []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.reads...), append([]string(nil), s.writes...)
}

// timeHandler wraps the program's handler, timing /v1/eval requests.
func (l *layers) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/eval" {
			l.observe("server.handler_us", us(time.Since(t0)))
		}
	})
}
