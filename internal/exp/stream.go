package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ltrf/internal/sim"
)

// StreamResult is one completed point of a streaming sweep: the index into
// the caller's point slice, the point itself, and the evaluation outcome.
type StreamResult struct {
	Index int
	Point Point
	Res   *sim.Result
	Err   error
}

// EvalStream evaluates pts on a bounded worker pool and delivers each
// result on the returned channel AS IT COMPLETES — warm points (memoized or
// store-resident) flush immediately instead of queueing behind cold
// simulations. The channel is closed after the last delivery, once every
// worker has returned (or promptly after ctx fires; points not yet
// delivered are simply absent — the caller counts them as cancelled).
// RunBatch is a drain of this stream.
//
// Dispatch follows the engine's kernel-batched order (batchOrderIdx: warm
// first in declaration order, cold sorted by compiled-kernel identity) so
// the compile cache hits across the batch.
//
// Cross-replica coordination is non-blocking: a cold point whose store
// lease is held by another replica is DEFERRED — the worker moves on to the
// next point — and retried after the rest of the grid has dispatched, by
// which time the other replica has usually published it as a store hit.
// Deferred points that are still contended on the second pass fall back to
// the blocking wait (poll-until-published), so every point is eventually
// delivered exactly once.
func (e *Engine) EvalStream(ctx context.Context, workers int, pts []Point) <-chan StreamResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan StreamResult)
	go func() {
		defer close(out)
		emit := func(i int, res *sim.Result, err error) {
			select {
			case out <- StreamResult{Index: i, Point: pts[i], Res: res, Err: err}:
			case <-ctx.Done():
			}
		}

		// Pass 1: kernel-batched dispatch, deferring lease-contended points.
		var mu sync.Mutex
		var deferred []int
		fanOut(ctx, workers, e.batchOrderIdx(pts), func(i int) {
			res, err := e.EvalNoWait(ctx, pts[i])
			if IsLeaseBusy(err) {
				mu.Lock()
				deferred = append(deferred, i)
				mu.Unlock()
				return
			}
			emit(i, res, err)
		})

		// Pass 2: deferred points, in deferral order, now with the blocking
		// cross-replica wait. Most are store hits by now; stragglers poll
		// until the owning replica publishes (or its lease expires and this
		// engine takes the point over). Kernel batching no longer matters:
		// these points compile on another replica, not here.
		fanOut(ctx, workers, deferred, func(i int) {
			res, err := e.Eval(ctx, pts[i])
			emit(i, res, err)
		})
	}()
	return out
}

// fanOut is the engine's one worker pool: it calls fn(i) for each i in idx,
// handing indices out in order to at most workers goroutines, and returns
// once every started call has returned. Once ctx is done no further index
// is handed out.
func fanOut(ctx context.Context, workers int, idx []int, fn func(i int)) {
	workers = min(workers, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				fn(idx[k])
			}
		}()
	}
	wg.Wait()
}
