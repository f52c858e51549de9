package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ltrf"
)

// simCase is one entry of the simulate workload's configuration list.
type simCase struct {
	Name     string
	Workload string
	Opts     ltrf.SimOptions
}

// simCases covers five simulator regimes (see README.md).
var simCases = []simCase{
	{"ltrf-t7-6.3x-hotspot", "hotspot", ltrf.SimOptions{Design: ltrf.LTRF, TechConfig: 7, LatencyX: 6.3}},
	{"bl-t1-1x-sgemm", "sgemm", ltrf.SimOptions{Design: ltrf.BL, TechConfig: 1, LatencyX: 1}},
	{"ltrfplus-t7-sgemm", "sgemm", ltrf.SimOptions{Design: ltrf.LTRFPlus, TechConfig: 7}},
	{"rfc-lbm-cta", "lbm", ltrf.SimOptions{Design: ltrf.RFC, Prefetch: "cta"}},
	{"bl-smempipe-stride-2cta", "smempipe", ltrf.SimOptions{Design: ltrf.BL, Prefetch: "stride", CTAsPerSM: 2}},
}

// minPasses is the fewest passes over the list one measurement makes.
const minPasses = 3

// simulate runs the configuration list through SimulateCached with a warm
// compile cache, checking every result against the first.
type simulate struct {
	cache   *ltrf.SimCache
	kernels []*ltrf.Program
	ref     []*ltrf.SimResult
}

func (s *simulate) setup(b *bench, small bool) (func(), error) {
	s.cache = ltrf.NewSimCache()
	s.kernels, s.ref = nil, nil
	for _, c := range simCases {
		w, err := ltrf.WorkloadByName(c.Workload)
		if err != nil {
			return nil, err
		}
		k := w.Build(ltrf.UnrollMaxwell)
		// The first simulation warms the compile cache and gives the
		// reference result every later repeat must reproduce.
		res, err := ltrf.SimulateCached(context.Background(), s.cache, c.Opts, k)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		s.kernels = append(s.kernels, k)
		s.ref = append(s.ref, res)
	}
	return func() {}, nil
}

func (s *simulate) measure(b *bench, seconds float64, traced bool) (endToEnd, error) {
	rng := newRNG(b.seed, 3)
	var passMS, passRate, wallRate []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(passMS) < minPasses || time.Now().Before(deadline) {
		order := rng.Perm(len(simCases))
		if traced {
			// The simulator's own per-layer figures come from the real
			// designs, so a traced pass is preceded by an untimed plain one.
			s.pass(b, order, false)
		}
		cpu, wall, instrs := s.pass(b, order, traced)
		passMS = append(passMS, ms(cpu))
		passRate = append(passRate, float64(instrs)/cpu.Seconds()/1e6)
		wallRate = append(wallRate, float64(instrs)/wall.Seconds()/1e6)
	}
	heap := heapMB()
	runtime.KeepAlive(s.cache)
	rate := median(passRate)
	return endToEnd{
		Throughput: rate,
		Lat:        summarize(passMS),
		HeapMB:     heap,
		Named: []namedValue{
			{"sim_minstrs_per_s", rate, "Minstr/s", fmt.Sprintf("(per processor second; median of %d passes over %d configurations)", len(passRate), len(simCases))},
			{"sim_minstrs_per_wall_s", median(wallRate), "Minstr/s", fmt.Sprintf("(per wall second, %d workers)", cores)},
		},
	}, nil
}

// pass runs the list once in the given order on the benchmark's workers,
// each simulation on one worker, and returns the processor and wall time
// it took and the instructions it simulated.
func (s *simulate) pass(b *bench, order []int, traced bool) (cpu, wall time.Duration, instrs int64) {
	var next, n atomic.Int64
	t0, c0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				n.Add(s.simulateOne(b, order[k], traced))
			}
		}()
	}
	wg.Wait()
	return cpuTime() - c0, time.Since(t0), n.Load()
}

// simulateOne runs configuration i, checks its Stats against the
// reference run, and returns the instructions it simulated.
func (s *simulate) simulateOne(b *bench, i int, traced bool) int64 {
	c := simCases[i]
	opts := c.Opts
	if traced {
		opts.Design = tracedDesign(opts.Design)
	}
	t0 := time.Now()
	res, err := ltrf.SimulateCached(context.Background(), s.cache, opts, s.kernels[i])
	d := time.Since(t0)
	b.op(err != nil)
	if err != nil {
		b.printf("simulate %s: %v\n", c.Name, err)
		return 0
	}
	b.check(reflect.DeepEqual(res.Stats, s.ref[i].Stats),
		"simulate %s (design %s): Stats differ from the reference run", c.Name, opts.Design)
	if b.layers != nil {
		b.layers.recordSim(res, d, traced)
	}
	return res.Instrs
}
