package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"ltrf/internal/exp"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// The request domains are spelled out here instead of being read from the
// program's registries, so that the generated requests stay the same when
// the program gains or loses a design or a workload. Every value is inside
// the domain the server validates, and no point in these domains truncates
// at the budgets below (techs 1-7, latency 0.5x-3x).
var (
	warmDesigns = []string{"BL", "RFC", "SHRF", "LTRF", "LTRF+", "LTRF(strand)", "Ideal", "comp", "regdem"}
	coldDesigns = []string{"BL", "RFC", "LTRF", "LTRF+"}
	// evalWorkloads is the paper's 14-workload evaluation subset.
	evalWorkloads = []string{"bfs", "btree", "kmeans", "pathfinder", "vectoradd", "cutcp", "heartwall",
		"hotspot", "lbm", "leukocyte", "mri-q", "sgemm", "srad", "stencil"}
	warmLatencies = []float64{0.5, 1, 1.5, 2, 2.5, 3}
	warmPrefetch  = []string{"", "stride"}
)

const (
	// gridPoints is the size of one cold sweep grid: designs x 2 techs x
	// 2 latencies x 4 workloads.
	gridPoints     = 64
	maxTech        = 7
	warmBudget     = 2000  // instructions per stored serve-warm point
	sweepBudget    = 12000 // instructions per cold sweep point
	coldEvalBudget = 6000  // instructions per cold /v1/eval point
	coldLatencies  = 1 << 16
)

// evalReq is the /v1/eval body. It names only the fields the benchmark
// sends, so a server that drops an unrelated field still accepts it.
type evalReq struct {
	Design   string  `json:"design"`
	Tech     int     `json:"tech"`
	LatencyX float64 `json:"latency_x"`
	Workload string  `json:"workload"`
	Budget   int64   `json:"budget"`
	Prefetch string  `json:"prefetch,omitempty"`
}

// sweepReq is the /v1/sweep body (grid axes only).
type sweepReq struct {
	Designs   []string  `json:"designs"`
	Workloads []string  `json:"workloads"`
	Techs     []int     `json:"techs"`
	LatencyXs []float64 `json:"latency_xs"`
	Budget    int64     `json:"budget"`
}

// point is the engine key the server derives from an evalReq.
func (r evalReq) point() exp.Point {
	return exp.Point{
		Design:   sim.Design(r.Design),
		Tech:     r.Tech,
		LatencyX: r.LatencyX,
		Workload: r.Workload,
		Unroll:   workloads.UnrollMaxwell,
		Budget:   r.Budget,
		Prefetch: r.Prefetch,
	}
}

func (r evalReq) body() []byte {
	data, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %+v: %v", r, err)) // plain struct; cannot fail
	}
	return data
}

// newRNG derives an independent stream from the run's seed for one use,
// so adding a use of randomness does not shift the others.
func newRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// warmPool draws n distinct serve-warm points from the warm domain. The
// order is the popularity rank the Zipf stream uses: pool[0] is the hottest.
func warmPool(seed int64, n int) []evalReq {
	rng := newRNG(seed, 1)
	seen := map[evalReq]bool{}
	out := make([]evalReq, 0, n)
	for len(out) < n {
		r := evalReq{
			Design:   warmDesigns[rng.Intn(len(warmDesigns))],
			Tech:     1 + rng.Intn(maxTech),
			LatencyX: warmLatencies[rng.Intn(len(warmLatencies))],
			Workload: evalWorkloads[rng.Intn(len(evalWorkloads))],
			Budget:   warmBudget,
			Prefetch: warmPrefetch[rng.Intn(len(warmPrefetch))],
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// zipfStream returns n pool indices with Zipf-skewed popularity (s=1.1).
func zipfStream(rng *rand.Rand, poolSize, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(poolSize-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// coldPlan is serve-cold's traffic: sweep grids and single cold evals whose
// latency multipliers are all distinct, so every point is a simulation.
type coldPlan struct {
	Sweeps []sweepReq
	Evals  []evalReq
}

// coldLatency maps a counter onto distinct multipliers in [0.5, 3): exact
// binary fractions, so they survive the JSON round trip unchanged.
func coldLatency(k int) float64 {
	return 0.5 + 2.5*float64(k%coldLatencies)/coldLatencies
}

// newColdPlan draws the traffic; next is the first unused latency counter
// and is advanced past the ones the plan uses, so a later plan on the same
// store is cold too.
func newColdPlan(seed int64, sweeps, evals int, next *int) coldPlan {
	rng := newRNG(seed, 2)
	k := *next
	defer func() { *next = k }()
	var p coldPlan
	for g := 0; g < sweeps; g++ {
		techs := rng.Perm(maxTech)[:2]
		wl := rng.Perm(len(evalWorkloads))[:4]
		req := sweepReq{Designs: coldDesigns, Budget: sweepBudget}
		for _, t := range techs {
			req.Techs = append(req.Techs, t+1)
		}
		for _, w := range wl {
			req.Workloads = append(req.Workloads, evalWorkloads[w])
		}
		req.LatencyXs = []float64{coldLatency(k), coldLatency(k + 1)}
		k += 2
		p.Sweeps = append(p.Sweeps, req)
	}
	for i := 0; i < evals; i++ {
		p.Evals = append(p.Evals, evalReq{
			Design:   coldDesigns[rng.Intn(len(coldDesigns))],
			Tech:     1 + rng.Intn(maxTech),
			LatencyX: coldLatency(k),
			Workload: evalWorkloads[rng.Intn(len(evalWorkloads))],
			Budget:   coldEvalBudget,
		})
		k++
	}
	return p
}

// sweepPoints is the number of points a sweep request expands to.
func (r sweepReq) sweepPoints() int {
	return len(r.Designs) * len(r.Workloads) * len(r.Techs) * len(r.LatencyXs)
}
