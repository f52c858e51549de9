package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/server"
	"ltrf/internal/sim"
	"ltrf/internal/store"
)

// service is the program's HTTP handler served on a loopback listener.
type service struct {
	http *http.Server
	url  string
	done chan error
}

func startService(b *bench, eng *exp.Engine, traced bool) (*service, error) {
	s, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if traced {
		h = b.layers.timeHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := &service{http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { svc.done <- svc.http.Serve(ln) }()
	return svc, nil
}

// stop shuts the listener down and waits for in-flight requests.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	<-s.done
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.Do(req)
}

// postRead posts body and reads the whole response.
func postRead(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := post(ctx, c, url, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// evalResp is the part of a /v1/eval response the checks compare.
type evalResp struct {
	IPC       float64   `json:"ipc"`
	Cycles    int64     `json:"cycles"`
	Instrs    int64     `json:"instrs"`
	Truncated bool      `json:"truncated"`
	Warps     int       `json:"warps"`
	Stats     sim.Stats `json:"stats"`
}

// sweepRecord is the part of a /v1/sweep "result" record the checks use.
type sweepRecord struct {
	Design    string  `json:"design"`
	Workload  string  `json:"workload"`
	Tech      int     `json:"tech"`
	LatencyX  float64 `json:"latency_x"`
	Budget    int64   `json:"budget"`
	IPC       float64 `json:"ipc"`
	Cycles    int64   `json:"cycles"`
	Instrs    int64   `json:"instrs"`
	Truncated bool    `json:"truncated"`
	Warps     int     `json:"warps"`
}

// sweepSummary is a sweep stream's terminal record.
type sweepSummary struct {
	Points    int `json:"points"`
	OK        int `json:"ok"`
	Errors    int `json:"errors"`
	Cancelled int `json:"cancelled"`
}

// checker compares served results with direct Engine.Eval calls on an
// engine without a store.
type checker struct {
	eng *exp.Engine
}

func (c *checker) compare(b *bench, what string, p exp.Point, got evalResp, full bool) {
	if c.eng == nil {
		c.eng = exp.NewEngine()
	}
	want, err := c.eng.Eval(context.Background(), p)
	if err != nil {
		b.check(false, "%s %s/%s@%gx: direct evaluation failed: %v", what, p.Design, p.Workload, p.LatencyX, err)
		return
	}
	same := got.IPC == want.IPC && got.Cycles == want.Cycles && got.Instrs == want.Instrs &&
		got.Truncated == want.Truncated && got.Warps == want.Warps
	if full {
		same = same && reflect.DeepEqual(got.Stats, want.Stats)
	}
	b.check(same, "%s %s/%s tech %d @%gx: served result differs from direct Engine.Eval", what, p.Design, p.Workload, p.Tech, p.LatencyX)
}

// checkSamples is how many served results each serve run compares.
const checkSamples = 8

// serveWarm is open-loop /v1/eval traffic over points stored during
// set-up; each step starts a fresh engine on the store.
type serveWarm struct {
	st     *store.Store
	tap    *storeTap
	pool   []evalReq
	bodies [][]byte
	check  checker
}

const (
	warmPoolSize  = 2048
	warmProbePool = 256
	// refRate is the arrival rate the reported latencies are measured at,
	// and refRequests the size of that step (a p99 with at least minBeyond
	// samples beyond it). Below a few thousand requests/s the processors
	// idle between arrivals and the tail measures their wake-up instead.
	refRate     = 3000.0
	refRequests = 2000
	// warmWindowShare is the share of the run's seconds spent in windows
	// at the reference rate (the ladder takes the rest).
	warmWindowShare = 0.4
	// latencyLimit is the goodput ladder's limit on p99 latency.
	latencyLimit = 10 * time.Millisecond
	// abandonLag ends a ladder step once requests leave this late.
	abandonLag = 250 * time.Millisecond
	// stepRequests is the size of one ladder step: enough for a p99 with
	// at least minBeyond samples beyond it.
	stepRequests = 1500
)

// warmLadder is the fixed ladder of arrival rates: 3000 requests/s rising
// by 10% a step to about 25000.
var warmLadder = func() []float64 {
	var out []float64
	for r := 3000.0; r < 26000; r *= 1.1 {
		out = append(out, math.Round(r))
	}
	return out
}()

func (w *serveWarm) setup(b *bench, small bool) (func(), error) {
	dir, err := b.subdir("warm")
	if err != nil {
		return nil, err
	}
	release := func() { os.RemoveAll(dir) }
	opts := store.Options{Version: exp.StoreVersion()}
	if b.layers != nil {
		w.tap = &storeTap{}
		opts.Injector = w.tap
	}
	w.st, err = store.Open(dir, opts)
	if err != nil {
		release()
		return nil, err
	}
	n := warmPoolSize
	if small {
		n = warmProbePool
	}
	w.pool = warmPool(b.seed, n)
	w.bodies = make([][]byte, n)
	pts := make([]exp.Point, n)
	for i, r := range w.pool {
		w.bodies[i] = r.body()
		pts[i] = r.point()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := exp.NewEngineWithStore(w.st)
	for r := range eng.EvalStream(ctx, cores, pts) {
		if r.Err != nil {
			release()
			return nil, fmt.Errorf("storing %+v: %w", w.pool[r.Index], r.Err)
		}
		if r.Res.Truncated {
			release()
			return nil, fmt.Errorf("stored point %+v truncates", w.pool[r.Index])
		}
	}
	return release, nil
}

// stepResult is one fixed-rate step of serve-warm.
type stepResult struct {
	Rate     float64
	Loop     loopStats
	CPU      time.Duration // processor time while the requests were served
	Pass     bool          // p99 (misses included) within the limit, no backlog
	GoodRate float64       // requests answered within the limit, per second
	HeapMB   float64
}

func (w *serveWarm) measure(b *bench, seconds float64, traced bool) (endToEnd, error) {
	if traced {
		w.tap.reset()
	}
	var named []namedValue
	if b.layers == nil {
		// The goodput ladder (untraced runs only). Its result swings with
		// the host's spare capacity, so it is reported, not bounded.
		best, err := w.ladder(b, 100)
		if err != nil {
			return endToEnd{}, err
		}
		named = append(named, namedValue{"eval_goodput_rps", best.GoodRate, "req/s",
			fmt.Sprintf("(highest passing ladder step %.0f req/s; p99 limit %v)", best.Rate, latencyLimit)})
	}
	// Windows at the reference rate. The reported latencies are those of
	// the least disturbed window: interference from other guests on the
	// host only ever adds latency.
	windows := max(2, int(math.Round(seconds*warmWindowShare*refRate/refRequests)))
	var p50s, tails []float64
	var last stepResult
	sent := 0
	var cpu time.Duration
	for r := 0; r < windows; r++ {
		ref, err := w.step(b, refRate, refRequests, traced, r == windows-1, int64(r))
		if err != nil {
			return endToEnd{}, err
		}
		cpu += ref.CPU
		b.printf("serve-warm window %d at %.0f req/s: n=%d ok=%d shed=%d failed=%d p50 %.3f ms p%g %.3f ms, generator lag p50 %.3f ms max %.3f ms\n",
			r+1, refRate, ref.Loop.Sent+ref.Loop.Skipped, ref.Loop.OK, ref.Loop.Shed, ref.Loop.Failed,
			ref.Loop.Lat.P50, ref.Loop.Lat.TailP, ref.Loop.Lat.Tail, ref.Loop.GenLagP50, ref.Loop.GenLagMax)
		p50s = append(p50s, ref.Loop.Lat.P50)
		tails = append(tails, ref.Loop.Lat.Tail)
		sent += ref.Loop.Sent
		last = ref
	}
	lat := timing{N: last.Loop.Lat.N, P50: percentile(p50s, 0), TailP: last.Loop.Lat.TailP, Tail: percentile(tails, 0)}
	throughput := float64(sent) / cpu.Seconds()
	named = append(named,
		namedValue{"eval_p50_ms", lat.P50, "ms", fmt.Sprintf("(best of %d windows of %d requests at %.0f req/s: %s)", windows, refRequests, refRate, fmtList(p50s, "%.3f"))},
		namedValue{"eval_p99_ms", lat.Tail, "ms", fmt.Sprintf("(p%g, best of %d windows: %s)", lat.TailP, windows, fmtList(tails, "%.3f"))},
		namedValue{"eval_per_cpu_s", throughput, "req/s", "(requests per processor second, server and client)"})
	if traced {
		w.traceLayers(b)
	}
	return endToEnd{Throughput: throughput, Lat: lat, HeapMB: last.HeapMB, Named: named}, nil
}

// ladder climbs the rate ladder once and returns the highest step that
// met the latency limit without a backlog (the lowest step when none did).
func (w *serveWarm) ladder(b *bench, stream int64) (stepResult, error) {
	var best *stepResult
	for i, rate := range warmLadder {
		s, err := w.step(b, rate, stepRequests, false, false, stream+int64(i))
		if err != nil {
			return stepResult{}, err
		}
		b.printf("serve-warm ladder %5.0f req/s: n=%d ok=%d shed=%d failed=%d skipped=%d p50 %.3f ms p%g %.3f ms, generator lag p50 %.3f ms max %.3f ms, good %.1f req/s, pass=%v\n",
			rate, s.Loop.Sent+s.Loop.Skipped, s.Loop.OK, s.Loop.Shed, s.Loop.Failed, s.Loop.Skipped,
			s.Loop.Lat.P50, s.Loop.Lat.TailP, s.Loop.Lat.Tail, s.Loop.GenLagP50, s.Loop.GenLagMax, s.GoodRate, s.Pass)
		if s.Pass || best == nil {
			best = &s
		}
	}
	return *best, nil
}

// step serves n Zipf-chosen stored points at the given rate from a fresh
// engine and server on the store.
func (w *serveWarm) step(b *bench, rate float64, n int, traced, checked bool, stream int64) (stepResult, error) {
	eng := exp.NewEngineWithStore(w.st)
	svc, err := startService(b, eng, traced)
	if err != nil {
		return stepResult{}, err
	}
	defer svc.stop()
	rng := newRNG(b.seed, stream)
	idx := zipfStream(rng, len(w.pool), n)
	due := arrivals(rng, rate, n)

	// The first checkSamples distinct points of the stream are compared
	// with direct evaluation.
	sampled := map[int][]byte{}
	for _, i := range idx {
		if len(sampled) == checkSamples || !checked {
			break
		}
		sampled[i] = nil
	}
	var mu sync.Mutex
	client := newClient(cores)
	defer client.CloseIdleConnections()
	url := svc.url + "/v1/eval"
	c0 := cpuTime()
	outs := openLoop(context.Background(), due, cores, abandonLag, func(ctx context.Context, i int) (int, error) {
		t0 := time.Now()
		status, body, err := postRead(ctx, client, url, w.bodies[idx[i]])
		if traced {
			b.layers.observe("server.rtt_us", us(time.Since(t0)))
		}
		if status == http.StatusOK {
			mu.Lock()
			if _, ok := sampled[idx[i]]; ok {
				sampled[idx[i]] = body
			}
			mu.Unlock()
		}
		return status, err
	})
	res := stepResult{Rate: rate, Loop: summarizeLoop(outs), CPU: cpuTime() - c0}
	if checked {
		res.HeapMB = heapMB()
	}
	runtime.KeepAlive(eng)

	b.check(eng.Sims() == 0, "serve-warm: the engine ran %d simulations; every served point is stored", eng.Sims())
	for _, o := range outs {
		if !o.Skipped {
			b.op(!o.ok())
		}
	}
	if traced {
		b.layers.add("server.shed", float64(res.Loop.Shed))
	}
	for i, body := range sampled {
		var got evalResp
		if err := json.Unmarshal(body, &got); err != nil {
			b.check(false, "serve-warm: undecodable response for %+v: %v", w.pool[i], err)
			continue
		}
		w.check.compare(b, "serve-warm", w.pool[i].point(), got, true)
	}

	// Goodput: misses (late, failed, shed or skipped) count as infinitely
	// slow; the last tenth of the schedule must not have backed up.
	lat := make([]float64, len(outs))
	good := 0
	for i, o := range outs {
		lat[i] = math.Inf(1)
		if o.ok() {
			lat[i] = ms(o.latency())
			if o.latency() <= latencyLimit {
				good++
			}
		}
	}
	limit := ms(latencyLimit)
	res.Pass = len(lat) > 0 && percentile(lat, 99) <= limit && percentile(lat[len(lat)*9/10:], 90) <= limit
	if span := res.Loop.Span.Seconds(); span > 0 {
		res.GoodRate = float64(good) / span
	}
	return res, nil
}

// traceLayers times the exp and store layers directly on served points.
func (w *serveWarm) traceLayers(b *bench) {
	ctx := context.Background()
	eng := exp.NewEngineWithStore(w.st)
	for _, r := range w.pool[:min(len(w.pool), 256)] {
		p := r.point()
		for _, key := range []string{"exp.eval_store_us", "exp.eval_memo_us"} {
			t0 := time.Now()
			_, err := eng.Eval(ctx, p)
			b.layers.observe(key, us(time.Since(t0)))
			b.op(err != nil)
		}
	}
	reads, _ := w.tap.keys()
	for _, k := range reads[:min(len(reads), 512)] {
		t0 := time.Now()
		_, err := w.st.Get(k)
		b.layers.observe("store.get_us", us(time.Since(t0)))
		b.op(err != nil)
	}
}

// serveCold streams cold /v1/sweep grids into an empty store over one
// connection while the other sends cold /v1/eval requests open-loop.
type serveCold struct {
	st    *store.Store
	tap   *storeTap
	eng   *exp.Engine
	next  int // the next cold latency counter
	check checker
}

const (
	// coldSweepRate sizes the sweep traffic: points per second of the run.
	coldSweepRate = 300.0
	// coldEvalRate is the arrival rate of cold /v1/eval requests.
	coldEvalRate = 60.0
	// coldWindows is how many consecutive windows the eval stream is cut
	// into for its latencies.
	coldWindows = 8
)

func (c *serveCold) setup(b *bench, small bool) (func(), error) {
	dir, err := b.subdir("cold")
	if err != nil {
		return nil, err
	}
	release := func() { os.RemoveAll(dir) }
	opts := store.Options{Version: exp.StoreVersion()}
	if b.layers != nil {
		c.tap = &storeTap{}
		opts.Injector = c.tap
	}
	c.st, err = store.Open(dir, opts)
	if err != nil {
		release()
		return nil, err
	}
	c.eng = exp.NewEngineWithStore(c.st)
	c.next = newRNG(b.seed, 4).Intn(coldLatencies)
	// Warm the engine's compile cache: one point per (design, tech,
	// workload) the traffic can draw, at a latency it never uses.
	var pts []exp.Point
	for _, d := range coldDesigns {
		for t := 1; t <= maxTech; t++ {
			for _, wl := range evalWorkloads {
				pts = append(pts, evalReq{Design: d, Tech: t, LatencyX: 1, Workload: wl, Budget: warmBudget}.point())
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for r := range c.eng.EvalStream(ctx, cores, pts) {
		if r.Err != nil {
			release()
			return nil, fmt.Errorf("warming %+v: %w", r.Point, r.Err)
		}
	}
	return release, nil
}

func (c *serveCold) measure(b *bench, seconds float64, traced bool) (endToEnd, error) {
	grids := int(math.Ceil(seconds * coldSweepRate / gridPoints))
	plan := newColdPlan(b.seed, grids, int(2*seconds*coldEvalRate), &c.next)
	svc, err := startService(b, c.eng, traced)
	if err != nil {
		return endToEnd{}, err
	}
	defer svc.stop()
	if traced {
		c.tap.reset()
	}
	waits0, retries0 := c.st.LeaseWaits(), c.st.Retries()
	c0 := cpuTime()

	// The eval schedule outlasts the sweeps; evals still due when the last
	// sweep finishes are not sent, so every eval measured ran beside them.
	sweepsDone, stopEvals := context.WithCancel(context.Background())
	defer stopEvals()
	var wg sync.WaitGroup
	var records []sweepRecord
	var sweepDur time.Duration
	var sweepErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stopEvals()
		client := newClient(1)
		defer client.CloseIdleConnections()
		t0 := time.Now()
		for _, req := range plan.Sweeps {
			recs, err := c.sweep(b, client, svc.url+"/v1/sweep", req, traced)
			if err != nil {
				sweepErr = err
				return
			}
			records = append(records, recs...)
		}
		sweepDur = time.Since(t0)
	}()

	evalClient := newClient(1)
	defer evalClient.CloseIdleConnections()
	sampleEvery := max(1, len(plan.Evals)/(2*checkSamples))
	bodies := make([][]byte, len(plan.Evals))
	rng := newRNG(b.seed, 5)
	outs := openLoop(sweepsDone, arrivals(rng, coldEvalRate, len(plan.Evals)), 1, 0, func(_ context.Context, i int) (int, error) {
		t0 := time.Now()
		status, body, err := postRead(context.Background(), evalClient, svc.url+"/v1/eval", plan.Evals[i].body())
		if traced {
			b.layers.observe("server.rtt_us", us(time.Since(t0)))
		}
		if i%sampleEvery == 0 && status == http.StatusOK {
			bodies[i] = body
		}
		return status, err
	})
	wg.Wait()
	if sweepErr != nil {
		return endToEnd{}, sweepErr
	}
	cpu := cpuTime() - c0
	heap := heapMB()
	runtime.KeepAlive(c.eng)

	var sent []outcome
	for _, o := range outs {
		if !o.Skipped {
			sent = append(sent, o)
			b.op(!o.ok())
		}
	}
	outs = sent
	loop := summarizeLoop(outs)
	// As in serve-warm, the latencies reported are those of the least
	// disturbed of a few consecutive windows of the eval stream.
	var p50s, tails []float64
	var win loopStats
	per := (len(outs) + coldWindows - 1) / coldWindows
	for i := 0; i < len(outs); i += per {
		win = summarizeLoop(outs[i:min(i+per, len(outs))])
		p50s = append(p50s, win.Lat.P50)
		tails = append(tails, win.Lat.Tail)
	}
	lat := timing{N: win.Lat.N, P50: percentile(p50s, 0), TailP: win.Lat.TailP, Tail: percentile(tails, 0)}
	for i, body := range bodies {
		if body == nil {
			continue
		}
		var got evalResp
		if err := json.Unmarshal(body, &got); err != nil {
			b.check(false, "serve-cold: undecodable /v1/eval response: %v", err)
			continue
		}
		c.check.compare(b, "serve-cold eval", plan.Evals[i].point(), got, true)
	}
	for i := 0; i < len(records); i += max(1, len(records)/checkSamples) {
		r := records[i]
		p := evalReq{Design: r.Design, Tech: r.Tech, LatencyX: r.LatencyX, Workload: r.Workload, Budget: r.Budget}.point()
		c.check.compare(b, "serve-cold sweep", p, evalResp{IPC: r.IPC, Cycles: r.Cycles, Instrs: r.Instrs, Truncated: r.Truncated, Warps: r.Warps}, false)
	}
	if traced {
		b.layers.add("server.shed", float64(loop.Shed))
		b.layers.add("store.lease_waits", float64(c.st.LeaseWaits()-waits0))
		b.layers.add("store.retries", float64(c.st.Retries()-retries0))
		if err := c.traceStore(b); err != nil {
			return endToEnd{}, err
		}
	}
	rate := float64(len(records)) / sweepDur.Seconds()
	perCPU := float64(len(records)) / cpu.Seconds()
	b.printf("serve-cold: %d sweeps (%d records) in %.3f s; evals n=%d ok=%d shed=%d failed=%d, p50 %.3f ms p%g %.3f ms overall, generator lag p50 %.3f ms max %.3f ms\n",
		len(plan.Sweeps), len(records), sweepDur.Seconds(), len(outs), loop.OK, loop.Shed, loop.Failed,
		loop.Lat.P50, loop.Lat.TailP, loop.Lat.Tail, loop.GenLagP50, loop.GenLagMax)
	return endToEnd{
		Throughput: perCPU,
		Lat:        lat,
		HeapMB:     heap,
		Named: []namedValue{
			{"sweep_points_per_s", rate, "points/s", fmt.Sprintf("(wall; %d records)", len(records))},
			{"sweep_points_per_cpu_s", perCPU, "points/s", "(per processor second of the whole process)"},
			{"eval_p50_ms", lat.P50, "ms", fmt.Sprintf("(cold, %.0f req/s beside the sweeps; best of %d windows: %s)", coldEvalRate, len(p50s), fmtList(p50s, "%.3f"))},
			{"eval_p99_ms", lat.Tail, "ms", fmt.Sprintf("(p%g of windows of %d; best of: %s)", lat.TailP, lat.N, fmtList(tails, "%.3f"))},
		},
	}, nil
}

// sweep posts one grid and reads its NDJSON stream, counting each point
// as an operation and timing the first result record.
func (c *serveCold) sweep(b *bench, client *http.Client, url string, req sweepReq, traced bool) ([]sweepRecord, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := post(context.Background(), client, url, body)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer resp.Body.Close()
	want := req.sweepPoints()
	if resp.StatusCode != http.StatusOK {
		for i := 0; i < want; i++ {
			b.op(true)
		}
		b.printf("sweep answered %d\n", resp.StatusCode)
		return nil, nil
	}
	var recs []sweepRecord
	var sum *sweepSummary
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var kind struct {
				Type string `json:"type"`
			}
			if jerr := json.Unmarshal(line, &kind); jerr != nil {
				return nil, fmt.Errorf("sweep record %q: %w", line, jerr)
			}
			switch kind.Type {
			case "result", "error":
				var r sweepRecord
				if jerr := json.Unmarshal(line, &r); jerr != nil {
					return nil, fmt.Errorf("sweep record %q: %w", line, jerr)
				}
				if kind.Type == "result" && len(recs) == 0 && traced {
					b.layers.observe("server.sweep_ttfr_ms", ms(time.Since(t0)))
				}
				ok := kind.Type == "result" && !r.Truncated
				b.op(!ok)
				if ok {
					recs = append(recs, r)
				}
			case "summary":
				sum = &sweepSummary{}
				if jerr := json.Unmarshal(line, sum); jerr != nil {
					return nil, fmt.Errorf("sweep summary %q: %w", line, jerr)
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sweep stream: %w", err)
		}
	}
	b.check(sum != nil && sum.Points == want && sum.OK == want && len(recs) == want,
		"serve-cold: sweep of %d points delivered %d results (summary %+v)", want, len(recs), sum)
	return recs, nil
}

// traceStore replays the store writes of the measurement against a
// scratch store, timing Put and a lease acquire/release per key.
func (c *serveCold) traceStore(b *bench) error {
	_, writes := c.tap.keys()
	dir, err := b.subdir("replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
	if err != nil {
		return err
	}
	for _, k := range writes[:min(len(writes), 256)] {
		data, err := c.st.Get(k)
		if err != nil {
			b.op(true)
			continue
		}
		t0 := time.Now()
		err = scratch.Put(k, data)
		b.layers.observe("store.put_us", us(time.Since(t0)))
		b.op(err != nil)
		t0 = time.Now()
		lease, err := scratch.AcquireLease(k, "perfbench", time.Minute)
		if err == nil {
			err = lease.Release()
		}
		b.layers.observe("store.lease_us", us(time.Since(t0)))
		b.op(err != nil)
	}
	return nil
}
