package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// the benchmark to report it as a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail is chosen from, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	// The tolerance keeps binary rounding (99.9/100*10000 is a hair above
	// 9990) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples strictly above it, or 50 when none does (a
// sample too small for any tail reports its median twice).
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile p of xs (any order).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// median returns the middle of xs, averaging the two middle samples of an
// even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarises a sample of durations in milliseconds: its median and
// its tail percentile under the minBeyond rule, with the sample count.
type timing struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.P50 = median(xs)
	t.TailP = tailPercentile(len(xs))
	t.Tail = percentile(xs, t.TailP)
	if t.TailP == 50 {
		t.Tail = t.P50
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the processor time the process has used (user and
// system). On a shared host it excludes the time the hypervisor gave the
// processors to other guests, which a wall clock counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
