package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the fate of one open-loop request. Times are offsets from the
// start of the run.
type outcome struct {
	Due  time.Duration // when the schedule said to send it
	Sent time.Duration // when a connection actually sent it
	Done time.Duration // when its response had been read
	// Free is the earliest moment the request could have been sent: its due
	// time, or later when every connection was still busy with earlier
	// requests. Sent-Free is the generator's own lateness.
	Free    time.Duration
	Status  int // HTTP status; 0 on a transport error or when never sent
	Err     error
	Skipped bool // never sent: the run was abandoned behind a backlog
}

// ok reports whether the request was answered with 200.
func (o outcome) ok() bool { return !o.Skipped && o.Err == nil && o.Status == 200 }

// latency is the request's time from due to done, so a request queued
// behind a stall is charged for the wait.
func (o outcome) latency() time.Duration { return o.Done - o.Due }

// sendFunc sends request i and reports its HTTP status.
type sendFunc func(ctx context.Context, i int) (status int, err error)

// openLoop sends request i at start+due[i] (due ascending) over conns
// connections, whatever the state of earlier requests: a request that
// finds every connection busy waits for the first to free up, and that wait
// counts in its latency. Once a request is sent more than abandonLag after
// it was due (0 = never), the rest of the schedule is skipped, so a rate the
// program cannot sustain ends early instead of queueing without bound. When
// ctx is done, requests not yet sent are skipped; send gets ctx but
// requests already sent may outlive it.
func openLoop(ctx context.Context, due []time.Duration, conns int, abandonLag time.Duration, send sendFunc) []outcome {
	out := make([]outcome, len(due))
	var next atomic.Int64
	var abandoned atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				o := &out[i]
				o.Due = due[i]
				if wait := due[i] - time.Since(start); wait > 0 {
					sleepCtx(ctx, wait)
				}
				if abandoned.Load() || ctx.Err() != nil {
					o.Skipped = true
					continue
				}
				o.Free = max(free, due[i])
				o.Sent = time.Since(start)
				if abandonLag > 0 && o.Sent-o.Due > abandonLag {
					abandoned.Store(true)
					o.Skipped = true
					continue
				}
				o.Status, o.Err = send(ctx, i)
				o.Done = time.Since(start)
				free = o.Done
			}
		}()
	}
	wg.Wait()
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// arrivals returns n Poisson arrival offsets at the given rate per second.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// loopStats summarises an open-loop run.
type loopStats struct {
	Sent, OK, Shed, Failed, Skipped int
	Lat                             timing  // latency of answered requests, ms
	GenLagP50, GenLagMax            float64 // generator lateness, ms
	Span                            time.Duration
}

func summarizeLoop(outs []outcome) loopStats {
	var s loopStats
	var lat, lag []float64
	for _, o := range outs {
		if o.Skipped {
			s.Skipped++
			continue
		}
		s.Sent++
		lag = append(lag, ms(o.Sent-o.Free))
		s.Span = max(s.Span, o.Done)
		switch {
		case o.ok():
			s.OK++
			lat = append(lat, ms(o.latency()))
		case o.Status == 429 || o.Status == 503:
			s.Shed++
		default:
			s.Failed++
		}
	}
	s.Lat = summarize(lat)
	if len(lag) > 0 {
		s.GenLagP50 = median(lag)
		s.GenLagMax = percentile(lag, 100)
	}
	return s
}
