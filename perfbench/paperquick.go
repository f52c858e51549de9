package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ltrf"
	"ltrf/internal/exp"
)

// minRepeats is the fewest full-suite repeats an untraced measurement makes.
const minRepeats = 2

// paperQuick regenerates every paper artifact at quick budgets, each
// repeat on a fresh engine, and checks the rendered bytes.
type paperQuick struct {
	want []byte // the first render; every later one must match it
}

// setup builds every registered workload's kernel and runs it through a
// fresh compile cache: pressure analysis, allocation, and both prefetch
// partitions.
func (p *paperQuick) setup(b *bench, small bool) (func(), error) {
	cache := ltrf.NewSimCache()
	for _, w := range ltrf.Workloads() {
		k := w.Build(ltrf.UnrollMaxwell)
		demand, err := cache.Pressure(k)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		prog, _, err := cache.Allocate(k, demand)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, strands := range []bool{false, true} {
			if _, err := cache.Partition(prog, strands, 16); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
		}
	}
	return func() {}, nil
}

func (p *paperQuick) measure(b *bench, seconds float64, traced bool) (endToEnd, error) {
	minReps := minRepeats
	if b.layers != nil {
		minReps = 1
	}
	var wall, cpu []float64
	var eng *exp.Engine
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(wall) < minReps || time.Now().Before(deadline) {
		eng = ltrf.NewExperimentEngine()
		var buf bytes.Buffer
		t0, c0 := time.Now(), cpuTime()
		var err error
		if traced {
			err = p.runTraced(b, eng, &buf)
		} else {
			err = ltrf.RunAllExperiments(&buf, ltrf.ExperimentOptions{Quick: true, Engine: eng})
		}
		d, c := time.Since(t0), cpuTime()-c0
		b.op(err != nil)
		if err != nil {
			return endToEnd{}, fmt.Errorf("paper-quick: %w", err)
		}
		wall = append(wall, d.Seconds())
		cpu = append(cpu, c.Seconds())
		if p.want == nil {
			p.want = buf.Bytes()
		}
		b.check(bytes.Equal(buf.Bytes(), p.want), "paper-quick: a render (traced: %v) differs from the first", traced)
	}
	heap := heapMB()
	runtime.KeepAlive(eng)
	if !traced {
		if err := p.checkSerial(b, p.want); err != nil {
			return endToEnd{}, err
		}
	}
	cpuMS := make([]float64, len(cpu))
	for i, c := range cpu {
		cpuMS[i] = 1000 * c
	}
	return endToEnd{
		Throughput: float64(len(ltrf.Experiments())) / median(cpu),
		Lat:        summarize(cpuMS),
		HeapMB:     heap,
		Named: []namedValue{
			{"paper_quick_s", median(wall), "s", fmt.Sprintf("(wall; median of %d suite runs: %s)", len(wall), fmtList(wall, "%.3f"))},
			{"paper_quick_cpu_s", median(cpu), "s", fmt.Sprintf("(processor time: %s)", fmtList(cpu, "%.3f"))},
		},
	}, nil
}

// checkSerial renders the suite once more on a fresh engine with a single
// worker and compares it with the measured renders.
func (p *paperQuick) checkSerial(b *bench, want []byte) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var buf bytes.Buffer
	err := ltrf.RunAllExperiments(&buf, ltrf.ExperimentOptions{Quick: true, Engine: ltrf.NewExperimentEngine()})
	b.op(err != nil)
	if err != nil {
		return fmt.Errorf("paper-quick serial render: %w", err)
	}
	b.check(bytes.Equal(buf.Bytes(), want), "paper-quick: the serial render differs from the 2-worker renders")
	return nil
}

// runTraced is RunAllExperiments' loop with every experiment timed.
func (p *paperQuick) runTraced(b *bench, eng *exp.Engine, buf *bytes.Buffer) error {
	for _, s := range ltrf.Experiments() {
		t0 := time.Now()
		t, err := s.Run(ltrf.ExperimentOptions{Quick: true, Engine: eng})
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		b.layers.observe("exp.run_s."+s.ID, time.Since(t0).Seconds())
		t.Fprint(buf)
		fmt.Fprintln(buf)
	}
	b.layers.observe("exp.sims", float64(eng.Sims()))
	b.layers.observe("exp.compiles", float64(eng.Compiles()))
	return nil
}
