package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLeaseAcquireReleaseCycle(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	l, err := s.AcquireLease("pt", "replica-a", time.Minute)
	if err != nil {
		t.Fatalf("AcquireLease: %v", err)
	}
	if l.Owner != "replica-a" || time.Until(l.Deadline) <= 0 {
		t.Fatalf("lease fields: owner=%q deadline=%v", l.Owner, l.Deadline)
	}
	// A second owner is refused with ErrLeaseHeld while the lease is live.
	if _, err := s.AcquireLease("pt", "replica-b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second acquire: got %v, want ErrLeaseHeld", err)
	}
	if err := l.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	// Released: the next acquire wins immediately.
	l2, err := s.AcquireLease("pt", "replica-b", time.Minute)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	l2.Release()
	if s.LeasesAcquired() != 2 || s.LeaseWaits() != 1 {
		t.Fatalf("counters: acquired=%d waits=%d", s.LeasesAcquired(), s.LeaseWaits())
	}
	// Double release (takeover already retired the claim) is success.
	if err := l2.Release(); err != nil {
		t.Fatalf("double Release: %v", err)
	}
}

func TestLeaseExclusiveUnderContention(t *testing.T) {
	// Many goroutines race one key: exactly one acquisition may succeed
	// while the lease is live — the O_EXCL create arbitrates.
	s := open(t, t.TempDir(), Options{Version: "v1"})
	const n = 16
	var won atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.AcquireLease("hot", "racer", time.Minute); err == nil {
				won.Add(1)
			} else if !errors.Is(err, ErrLeaseHeld) {
				t.Errorf("unexpected acquire error: %v", err)
			}
		}()
	}
	wg.Wait()
	if won.Load() != 1 {
		t.Fatalf("%d acquisitions succeeded, want exactly 1", won.Load())
	}
}

func TestLeaseRaceHasOneWinnerAndNoTakeover(t *testing.T) {
	// Goroutines released together race AcquireLease on one fresh key,
	// round after round. A loser must never read the winner's lease file
	// half-written, take it for torn, and remove it as stale: each round
	// has exactly one winner and the store counts no takeover.
	s := open(t, t.TempDir(), Options{Version: "v1"})
	const rounds, n = 40, 8
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("hot-%d", round)
		start := make(chan struct{})
		var won atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := s.AcquireLease(key, "racer", time.Minute); err == nil {
					won.Add(1)
				} else if !errors.Is(err, ErrLeaseHeld) {
					t.Errorf("unexpected acquire error: %v", err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if won.Load() != 1 {
			t.Fatalf("round %d: %d acquisitions succeeded, want exactly 1", round, won.Load())
		}
	}
	if s.LeaseTakeovers() != 0 {
		t.Fatalf("takeovers=%d among live leases, want 0", s.LeaseTakeovers())
	}
}

func TestLeaseStaleTakeover(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	// A replica "crashes" holding a lease: the file stays, its deadline in
	// the past. The next acquirer must take it over instead of waiting.
	rec, _ := json.Marshal(leaseRecord{Owner: "crashed", Deadline: time.Now().Add(-time.Second)})
	if err := os.WriteFile(s.LeasePath("pt"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := s.AcquireLease("pt", "survivor", time.Minute)
	if err != nil {
		t.Fatalf("takeover acquire: %v", err)
	}
	if l.Owner != "survivor" {
		t.Fatalf("owner after takeover: %q", l.Owner)
	}
	if s.LeaseTakeovers() != 1 {
		t.Fatalf("takeovers=%d, want 1", s.LeaseTakeovers())
	}
}

func TestLeaseTornFileTreatedAsStale(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	// A crash mid-lease-write leaves an unparseable file; it must not wedge
	// the key — the next acquirer treats it as stale and takes over.
	if err := os.WriteFile(s.LeasePath("pt"), []byte(`{"owner":"cra`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireLease("pt", "survivor", time.Minute); err != nil {
		t.Fatalf("acquire over torn lease: %v", err)
	}
}

func TestLeaseLiveHolderNotTakenOver(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	if _, err := s.AcquireLease("pt", "holder", time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AcquireLease("pt", "challenger", time.Minute); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("challenge %d: got %v, want ErrLeaseHeld", i, err)
		}
	}
	if s.LeaseTakeovers() != 0 {
		t.Fatalf("takeovers=%d on a live lease", s.LeaseTakeovers())
	}
}

func TestLeasePollDelayJittersWithinBackoffEnvelope(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	p := s.retry
	for try := 1; try <= 10; try++ {
		d := s.LeasePollDelay(try)
		if d <= 0 {
			t.Fatalf("try %d: non-positive delay %v", try, d)
		}
		if max := time.Duration(1.5 * float64(p.Max)); d > max {
			t.Fatalf("try %d: delay %v above jittered cap %v", try, d, max)
		}
	}
	if d := s.LeasePollDelay(0); d <= 0 {
		t.Fatalf("clamped try: non-positive delay %v", d)
	}
}

func TestConcurrentCorruptReadersQuarantineOnce(t *testing.T) {
	// The PR 10 satellite race: two (here: many) concurrent readers of the
	// same corrupt record all fail verification and all call quarantine. Only
	// one rename can win; the losers must treat ENOENT as "already handled"
	// — every reader still gets a recompute signal (ErrCorrupt or, once the
	// file is gone, ErrNotFound), exactly one specimen is preserved, and the
	// quarantine counter records one event, not one per reader.
	dir := t.TempDir()
	s := open(t, dir, Options{Version: "v1"})
	if err := s.Put("k", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	path := s.Path("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	const readers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := s.Get("k")
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Errorf("concurrent Get: %v, want ErrCorrupt or ErrNotFound", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := s.Quarantined(); got != 1 {
		t.Errorf("quarantined=%d, want exactly 1", got)
	}
	ents, err := os.ReadDir(s.Dir() + "/quarantine")
	if err != nil || len(ents) != 1 {
		t.Errorf("quarantine specimens: %d (err %v), want exactly 1", len(ents), err)
	}
	// The address heals with a fresh Put, as after a single-reader quarantine.
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "recomputed" {
		t.Fatalf("Get after heal: %q, %v", got, err)
	}
}
