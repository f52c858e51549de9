package exp

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOut pins the worker pool's contract: every index reaches fn
// exactly once (in order with one worker), no more than workers calls run
// at once, and once ctx is cancelled no new call starts and fanOut returns.
func TestFanOut(t *testing.T) {
	perm := []int{4, 0, 6, 2, 5, 1, 3}
	cases := []struct {
		name    string
		workers int
		idx     []int
	}{
		{"1 worker empty", 1, nil},
		{"1 worker", 1, perm},
		{"3 workers empty", 3, []int{}},
		{"3 workers", 3, perm},
		{"more workers than indices", 16, perm},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			var got []int
			var active, peak atomic.Int64
			fanOut(context.Background(), c.workers, c.idx, func(i int) {
				n := active.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond) // let calls overlap
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
				active.Add(-1)
			})
			if p := peak.Load(); p > int64(c.workers) {
				t.Errorf("%d concurrent calls, want at most %d", p, c.workers)
			}
			seen := map[int]int{}
			for _, i := range got {
				seen[i]++
			}
			if len(got) != len(c.idx) || len(seen) != len(c.idx) {
				t.Errorf("fn saw %v, want each of %v exactly once", got, c.idx)
			}
			for _, i := range c.idx {
				if seen[i] != 1 {
					t.Errorf("index %d passed %d times, want 1", i, seen[i])
				}
			}
			if c.workers == 1 {
				for k := range got {
					if got[k] != c.idx[k] {
						t.Errorf("one worker ran %v, want declared order %v", got, c.idx)
						break
					}
				}
			}
		})

		if len(c.idx) <= c.workers {
			continue
		}
		t.Run(c.name+" cancelled", func(t *testing.T) {
			// The first `workers` calls block until all of them have
			// started; the last to start cancels ctx. No further call may
			// start after that.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gate := make(chan struct{})
			var calls atomic.Int64
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				fanOut(ctx, c.workers, c.idx, func(int) {
					if calls.Add(1) == int64(c.workers) {
						cancel()
						close(gate)
					}
					<-gate
				})
			}()
			select {
			case <-returned:
			case <-time.After(30 * time.Second):
				t.Fatal("fanOut did not return after cancellation")
			}
			if n := calls.Load(); n != int64(c.workers) {
				t.Errorf("%d calls, want %d (none after cancellation)", n, c.workers)
			}
		})
	}

	// A context that is already done hands out nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fanOut(ctx, 3, perm, func(int) { t.Error("fn called under a cancelled context") })
}
