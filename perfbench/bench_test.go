package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ltrf"
)

// requestStream renders everything the generators produce for a seed.
func requestStream(seed int64) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	pool := warmPool(seed, 300)
	rng := newRNG(seed, 7)
	next := newRNG(seed, 4).Intn(coldLatencies)
	for _, v := range []any{
		pool,
		zipfStream(rng, len(pool), 500),
		arrivals(rng, refRate, 500),
		newColdPlan(seed, 5, 50, &next),
		next,
	} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	a, b := requestStream(42), requestStream(42)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated two different request streams")
	}
	if bytes.Equal(a, requestStream(43)) {
		t.Fatal("different seeds generated the same request stream")
	}
}

func TestColdPlanPointsAreDistinct(t *testing.T) {
	next := 65_000 // wraps around the latency counter
	seen := map[float64]bool{}
	for i := 0; i < 2; i++ {
		p := newColdPlan(1, 20, 200, &next)
		for _, s := range p.Sweeps {
			for _, lx := range s.LatencyXs {
				if seen[lx] {
					t.Fatalf("latency %v used twice", lx)
				}
				seen[lx] = true
			}
		}
		for _, e := range p.Evals {
			if seen[e.LatencyX] {
				t.Fatalf("latency %v used twice", e.LatencyX)
			}
			seen[e.LatencyX] = true
			if e.LatencyX < 0.5 || e.LatencyX >= 3 {
				t.Fatalf("latency %v outside [0.5, 3)", e.LatencyX)
			}
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 1; n <= 20000; n++ {
		p := tailPercentile(n)
		if p != 50 && n-rank(n, p) < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, p, n-rank(n, p))
		}
		for _, q := range tailCandidates {
			if q > p && n-rank(n, q) >= minBeyond {
				t.Fatalf("n=%d: chose p%v although p%v leaves %d beyond", n, p, q, n-rank(n, q))
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := summarize(xs); got.TailP != 99 || got.Tail != 990 || got.P50 != 500.5 {
		t.Fatalf("summarize = %+v, want p99 990 and median 500.5", got)
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	outs := openLoop(context.Background(), due, 1, 0, func(ctx context.Context, i int) (int, error) {
		status, _, err := postRead(ctx, client, srv.URL, []byte("{}"))
		return status, err
	})
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d: status %d err %v", i, o.Status, o.Err)
		}
		// Every request was due before the stall ended, so each waited for
		// it: its latency, counted from when it was due, covers the rest of
		// the stall even though its own service was instant.
		if min := stall - due[i]; o.latency() < min {
			t.Errorf("request %d (due %v): latency %v, want at least %v", i, due[i], o.latency(), min)
		}
		if i > 0 && o.Sent < stall {
			t.Errorf("request %d sent at %v, before the stalled request finished", i, o.Sent)
		}
	}
	if s := summarizeLoop(outs); s.OK != len(due) || s.Lat.N != len(due) {
		t.Fatalf("summary %+v", s)
	}
}

func TestDelegatingDesignLeavesStatsEqual(t *testing.T) {
	cache := ltrf.NewSimCache()
	calls := rfTimes.calls.Load()
	for _, c := range simCases {
		w, err := ltrf.WorkloadByName(c.Workload)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(ltrf.UnrollMaxwell)
		opts := c.Opts
		opts.MaxInstrs = 20_000
		plain, err := ltrf.SimulateCached(context.Background(), cache, opts, k)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		opts.Design = tracedDesign(opts.Design)
		traced, err := ltrf.SimulateCached(context.Background(), cache, opts, k)
		if err != nil {
			t.Fatalf("%s traced: %v", c.Name, err)
		}
		if !reflect.DeepEqual(plain.Stats, traced.Stats) {
			t.Errorf("%s: Stats differ under the delegating design\nplain  %+v\ntraced %+v", c.Name, plain.Stats, traced.Stats)
		}
	}
	if rfTimes.calls.Load() == calls {
		t.Fatal("the delegating design timed no calls")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e := map[string]string{}
	for name, m := range endToEndMetrics(1, endToEnd{}) {
		e2e[name] = m.Unit
	}
	if want := declared(doc.EndToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, want)
	}
	layer := map[string]string{}
	for _, m := range layerMetrics() {
		layer[m.Name] = m.Unit
	}
	if want := declared(doc.PerLayer); !reflect.DeepEqual(layer, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layer, want)
	}
}
