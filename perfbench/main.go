// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points — the ltrf façade,
// exp.Engine, and server.New(...).Handler() on a loopback listener — checks
// the outputs, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its standard output:
//
//	bash perfbench/run.sh --workload simulate --seed 1 --seconds 12 --trace 0
//
// See README.md for the workloads, the metrics and what each one means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// cores is the parallelism the benchmark allows itself: worker goroutines
// for simulation and client connections alike.
const cores = 2

// setupRuns is how many times each run repeats its set-up; setup_s is the
// median.
const setupRuns = 3

// probeSeconds is the length of each layer probe in a traced run.
const probeSeconds = 1.0

// workload is one benchmark traffic mix. setup prepares the state measure
// runs against (small: the reduced state a layer probe needs) and returns
// its release; measure drives the traffic for about seconds and reports the
// end-to-end figures. With traced set, measure also installs the
// benchmark's layer hooks (delegating design, store tap, handler timer).
type workload interface {
	setup(b *bench, small bool) (release func(), err error)
	measure(b *bench, seconds float64, traced bool) (endToEnd, error)
}

var benchWorkloads = []struct {
	name string
	make func() workload
}{
	{"simulate", func() workload { return &simulate{} }},
	{"paper-quick", func() workload { return &paperQuick{} }},
	{"serve-warm", func() workload { return &serveWarm{} }},
	{"serve-cold", func() workload { return &serveCold{} }},
}

// endToEnd is what one measurement reports. Throughput is units of the
// workload's own work per second of processor time (see README.md); Lat
// times the workload's operation.
type endToEnd struct {
	Throughput float64
	Lat        timing
	HeapMB     float64
	// Named restates the figures under their workload-specific names for
	// the report.
	Named []namedValue
}

type namedValue struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's context: its inputs, scratch directory, operation
// counts, check outcome and (when tracing) the layer recorder.
type bench struct {
	seed   int64
	dir    string
	layers *layers // nil unless --trace 1

	mu                sync.Mutex // guards the fields below and out
	out               io.Writer
	attempted, failed int64
	checkFailures     int
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if failed {
		b.failed++
	}
}

// check records a failed output check: the run is then reported incorrect
// and the check counts as a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checkFailures++
	b.failed++
	fmt.Fprintf(b.out, "CHECK FAILED: "+format+"\n", args...)
}

func (b *bench) printf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fmt.Fprintf(b.out, format, args...)
}

// subdir creates a fresh directory under the run's scratch directory.
func (b *bench) subdir(name string) (string, error) {
	return os.MkdirTemp(b.dir, name+"-")
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: simulate, paper-quick, serve-warm or serve-cold")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Float64("seconds", 12, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var mk func() workload
	for _, w := range benchWorkloads {
		if w.name == *name {
			mk = w.make
		}
	}
	if mk == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload simulate|paper-quick|serve-warm|serve-cold --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(cores)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	b := &bench{seed: *seed, dir: root, out: os.Stdout}
	var res result
	if *trace == 1 {
		b.layers = newLayers()
		res, err = tracedRun(b, *name, mk(), *seconds)
	} else {
		res, err = endToEndRun(b, mk(), *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = b.checkFailures == 0
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// timedSetup runs w.setup setupRuns times, releasing all but the last
// state, and returns the median processor time of one set-up in seconds.
func timedSetup(b *bench, w workload) (release func(), setupS float64, err error) {
	var cpu, wall []float64
	for i := 0; i < setupRuns; i++ {
		if release != nil {
			release()
		}
		t0, c0 := time.Now(), cpuTime()
		release, err = w.setup(b, false)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
	}
	b.printf("setup_s %.4f s processor time (median of %d: %s; wall %s s)\n",
		median(cpu), len(cpu), fmtList(cpu, "%.3f"), fmtList(wall, "%.3f"))
	return release, median(cpu), nil
}

// endToEndRun is the untraced run: set up, measure, report every
// end-to-end metric.
func endToEndRun(b *bench, w workload, seconds float64) (result, error) {
	release, setupS, err := timedSetup(b, w)
	if err != nil {
		return result{}, err
	}
	e, err := w.measure(b, seconds, false)
	release()
	if err != nil {
		return result{}, err
	}
	printEndToEnd(b, "", e)
	return result{Metrics: endToEndMetrics(setupS, e)}, nil
}

// endToEndMetrics is the untraced run's metric set.
func endToEndMetrics(setupS float64, e endToEnd) map[string]metric {
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"work_per_cpu_s": {e.Throughput, "1/s"},
		"latency_p50_ms": {e.Lat.P50, "ms"},
		"heap_mb":        {e.HeapMB, "MB"},
	}
}

// tracedRun measures the workload untraced and then traced for half the
// time each (their difference is the tracing overhead), then probes every
// layer the workload does not exercise with a short traced run of the
// workload that does, and reports every per-layer metric.
func tracedRun(b *bench, name string, w workload, seconds float64) (result, error) {
	release, err := w.setup(b, false)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	b.layers.setSource(name, "(untraced half)")
	base, err := w.measure(b, seconds/2, false)
	if err != nil {
		release()
		return result{}, err
	}
	b.layers.setSource(name, "(traced half)")
	traced, err := w.measure(b, seconds/2, true)
	release()
	if err != nil {
		return result{}, err
	}
	printEndToEnd(b, "untraced ", base)
	printEndToEnd(b, "traced ", traced)
	b.printf("tracing overhead (traced - untraced): work_per_cpu_s %+.4g, latency_p50_ms %+.4g, latency_tail_ms %+.4g, heap_mb %+.4g\n",
		traced.Throughput-base.Throughput, traced.Lat.P50-base.Lat.P50, traced.Lat.Tail-base.Lat.Tail, traced.HeapMB-base.HeapMB)
	b.layers.setSource(name, "")
	b.layers.observe("trace.overhead_pct", 100*(traced.Lat.P50-base.Lat.P50)/base.Lat.P50)

	for _, o := range benchWorkloads {
		if o.name == name {
			continue
		}
		b.layers.setSource(o.name+" probe", "")
		p := o.make()
		release, err := p.setup(b, true)
		if err != nil {
			return result{}, fmt.Errorf("%s probe setup: %w", o.name, err)
		}
		_, err = p.measure(b, probeSeconds, true)
		release()
		if err != nil {
			return result{}, fmt.Errorf("%s probe: %w", o.name, err)
		}
	}
	if err := probeStatic(b); err != nil {
		return result{}, err
	}
	metrics, err := b.layers.metrics()
	if err != nil {
		return result{}, err
	}
	b.layers.print(b.out)
	return result{Metrics: metrics}, nil
}

func printEndToEnd(b *bench, prefix string, e endToEnd) {
	for _, n := range e.Named {
		b.printf("%s%s %.6g %s %s\n", prefix, n.Name, n.Value, n.Unit, n.Note)
	}
	b.printf("%swork_per_cpu_s %.6g 1/s; latency p50 %.4f ms, p%g %.4f ms (n=%d); heap %.3f MB\n",
		prefix, e.Throughput, e.Lat.P50, e.Lat.TailP, e.Lat.Tail, e.Lat.N, e.HeapMB)
}

// heapMB forces a garbage collection and returns the live heap in MB.
// Callers keep the workload's long-lived state reachable across the call.
func heapMB() float64 {
	// Two collections: the first only moves sync.Pool contents to the
	// pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var errNoSamples = errors.New("no samples")
