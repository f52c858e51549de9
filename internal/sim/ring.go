package sim

// The indexed "next issuable warp" structure. PR 5 made the CLOCK
// event-driven (idle passes jump to the next wakeup), but every non-idle
// pass still rescanned the whole active set round-robin, so low-latency
// configurations — where almost every active warp is blocked on a
// scoreboard arrival, a busy operand collector, or a stall, and one or two
// issue per cycle — paid O(active warps) of pointer-chasing per pass to
// find them. readyRing makes the SCAN event-driven too: it tracks, per
// active-slot position, whether the warp there can plausibly act this
// pass, and the issue scan walks only those positions. A pass costs
// O(issued + events) instead of O(active warps).
//
// The index is three structures, chosen so the per-event cost is a couple
// of word operations rather than a heap traversal:
//
//   - armed: a bitmask over active positions the scan must examine;
//   - a 64-bucket wake wheel: a warp that cannot act before a cycle at
//     most ringBuckets ahead (the overwhelmingly common case at low
//     latency: ALU chains, L1 hits, collector drain, its own next cycle
//     after issuing) sets one bit in the bucket its wake cycle maps to,
//     and advancing the clock ORs due buckets back into armed — no
//     per-warp work at all on the wake path;
//   - a (wake cycle, warp) min-heap for the rare far parks (cache misses
//     past the wheel horizon, long prefetch stalls), popped into armed as
//     their cycles arrive.
//
// The index is updated on exactly the events the PR 5 machinery already
// observes, so no new information is needed: scoreboard arrival, stall
// expiry, and collector free times are known when the warp blocks (park
// into wheel/heap); issue makes the warp re-examinable at cycle+1 (wheel,
// offset 1); activation arms or parks the warp at its freshly-appended
// position; deactivation/barrier/finish drop the position (compaction
// rebuild). Warps whose only obstacle is the deactivation predicate's
// pool check stay armed and are re-examined every pass, so no pool event
// is missed.
//
// Pick order is preserved EXACTLY: positions index the same active slice
// the linear scan walks, the scan starts at the same rr%n rotation and
// wraps the same way, and a skipped position is precisely one the linear
// scan would have examined and skipped without any state change (proven
// case-by-case in visitActive, differentially by
// TestReadyRingMatchesReferenceScan and FuzzIndexedScanEquivalence, and
// end-to-end by the equivalence cross-product against the linear-scan
// reference in reference_test.go).
//
// Equivalence also needs nextWake (the event-driven clock's jump target)
// to be unchanged: parked warps contribute their wake time through the
// wheel/heap minima instead of a per-pass wakeAt, the same value the
// linear scan re-derives every pass.

import (
	"math"
	"math/bits"

	"ltrf/internal/isa"
)

// ringBuckets is the wake wheel's horizon in cycles (power of two). Parks
// further out than this go to the heap. 64 covers the short-block regime
// the wheel exists for — ALU/SFU chains, L1 hits, collector drain — and
// makes the bucket-occupancy set a single word.
const ringBuckets = 64

// ringWake is one far-parked active warp: at is the cycle it must be
// re-examined, wid the warp's SM-local index (stable across compaction —
// the warp's current position is read from Warp.slot at pop time).
type ringWake struct {
	at  int64
	wid int32
}

// readyRing indexes the active scheduling set by issuability. All storage
// is preallocated for the resident warp count — steady-state operations
// never allocate (TestReadyRingAllocationFree).
//
// Membership invariant (for warps in the active set): a warp with
// wake cycle <= cycle has its position's bit in armed; one with
// wake in (cycle, cycle+ringBuckets] has it in bucket wake%ringBuckets;
// one with wake beyond that has a heap entry and no bit anywhere.
// Compaction relies on this to rebuild the masks from wake cycles alone.
//
// A warp's wake cycle is Warp.wake, except for a collector-bound warp (its
// position bit set in coll): one whose last visit parked it on a busy
// operand collector and that has not issued since. Such a warp's wake
// cycle is max(Warp.wake, collAt), because parkCollBound re-parks every
// armed collector-bound warp at once — at the pass's first collector-free
// cycle, recorded in collAt — without touching the warps. The maximum is
// exact: while every collector is busy their earliest free time cannot
// move (a claim needs a free collector), so a collector-bound warp parked
// individually before a bulk re-park carries that same target, and one
// that had already woken was armed and so moved with the rest.
type readyRing struct {
	armed []uint64

	// buckets holds ringBuckets masks of `words` words each (bucket b at
	// [b*words, (b+1)*words)); occupied bit b is set iff bucket b is
	// non-empty. Every resident wake cycle lies in (cycle, cycle+64], so a
	// bucket holds at most one distinct wake cycle and merging is exact.
	buckets  []uint64
	occupied uint64
	words    int

	heap []ringWake

	// coll marks collector-bound positions; collAt is the target of the
	// latest bulk re-park (see the membership invariant).
	coll   []uint64
	collAt int64
}

// init sizes the ring for n resident warps (the active set can never
// exceed the resident count, and a warp parks at most once per blocking
// episode).
func (r *readyRing) init(n int) {
	r.words = (n + 63) >> 6
	r.armed = make([]uint64, r.words)
	r.buckets = make([]uint64, ringBuckets*r.words)
	r.heap = make([]ringWake, 0, n)
	r.coll = make([]uint64, r.words)
}

func (r *readyRing) set(pos int)   { r.armed[pos>>6] |= 1 << (pos & 63) }
func (r *readyRing) clear(pos int) { r.armed[pos>>6] &^= 1 << (pos & 63) }

// parkCollBound moves every armed collector-bound position into the wheel
// bucket for cycle at in one mask operation per word, and records at as
// their wake cycle. Parks beyond the wheel horizon would need per-warp heap
// entries, so there it moves nothing and the scan visits the warps as
// usual.
func (r *readyRing) parkCollBound(at, now int64) {
	if at-now > ringBuckets {
		return
	}
	b := int(at & (ringBuckets - 1))
	base := b * r.words
	var moved uint64
	for i := 0; i < r.words; i++ {
		m := r.armed[i] & r.coll[i]
		r.armed[i] &^= m
		r.buckets[base+i] |= m
		moved |= m
	}
	if moved != 0 {
		r.occupied |= 1 << b
	}
	r.collAt = at
}

// nextArmed returns the lowest armed position in [from, to), or -1. The
// issue scan uses it to jump directly between examinable warps.
func (r *readyRing) nextArmed(from, to int) int {
	if from >= to {
		return -1
	}
	wi := from >> 6
	word := r.armed[wi] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			pos := wi<<6 + bits.TrailingZeros64(word)
			if pos >= to {
				return -1
			}
			return pos
		}
		wi++
		if wi<<6 >= to {
			return -1
		}
		word = r.armed[wi]
	}
}

// park records that the warp at position pos cannot act before cycle `at`:
// one bit in the wake wheel when `at` is within the horizon, a heap entry
// otherwise. The caller has already cleared the armed bit (or never set
// it) and stored `at` in Warp.wake.
func (r *readyRing) park(at, now int64, pos int, wid int32) {
	if at-now <= ringBuckets {
		b := int(at & (ringBuckets - 1))
		r.buckets[b*r.words+pos>>6] |= 1 << (pos & 63)
		r.occupied |= 1 << b
		return
	}
	r.heap = append(r.heap, ringWake{at: at, wid: wid})
	i := len(r.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r.heap[p].at <= r.heap[i].at {
			break
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

// merge ORs every bucket whose wake cycle lies in (old, now] back into
// armed — the whole wake path for wheel-parked warps, with no per-warp
// work. Each occupied bucket b holds the unique pending wake cycle
// congruent to b, old+1+((b-(old+1)) mod ringBuckets); it is due iff that
// value is at most `now`.
func (r *readyRing) merge(old, now int64) {
	if r.occupied == 0 {
		return
	}
	steps := now - old
	if steps == 1 {
		// Non-idle advance (the common case): exactly one bucket is due.
		if b := int((old + 1) & (ringBuckets - 1)); r.occupied&(1<<b) != 0 {
			r.mergeBucket(b)
			r.occupied &^= 1 << b
		}
		return
	}
	if steps >= ringBuckets {
		// Everything resident is due: wake cycles never exceed old+64.
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			r.mergeBucket(bits.TrailingZeros64(occ))
		}
		r.occupied = 0
		return
	}
	for occ := r.occupied; occ != 0; occ &= occ - 1 {
		b := bits.TrailingZeros64(occ)
		if (int64(b)-(old+1))&(ringBuckets-1) < steps {
			r.mergeBucket(b)
			r.occupied &^= 1 << b
		}
	}
}

func (r *readyRing) mergeBucket(b int) {
	base := b * r.words
	for i := 0; i < r.words; i++ {
		r.armed[i] |= r.buckets[base+i]
		r.buckets[base+i] = 0
	}
}

// minAt returns the earliest cycle any parked warp wakes (wheel or heap),
// or MaxInt64 when nothing is parked — the index's contribution to the
// pass's nextWake. O(1): the wheel minimum falls out of rotating the
// occupancy word so bucket offsets count from cycle+1.
func (r *readyRing) minAt(now int64) int64 {
	t := int64(math.MaxInt64)
	if r.occupied != 0 {
		rot := bits.RotateLeft64(r.occupied, -int((now+1)&(ringBuckets-1)))
		t = now + 1 + int64(bits.TrailingZeros64(rot))
	}
	if len(r.heap) > 0 && r.heap[0].at < t {
		t = r.heap[0].at
	}
	return t
}

// due reports whether some heap-parked warp's wake cycle has arrived.
func (r *readyRing) due(now int64) bool {
	return len(r.heap) > 0 && r.heap[0].at <= now
}

// pop removes and returns the warp with the earliest heap wake cycle. Pop
// order among equal wake cycles is irrelevant: popping only sets armed
// bits, and the scan visits positions in rotation order regardless.
func (r *readyRing) pop() int32 {
	wid := r.heap[0].wid
	n := len(r.heap) - 1
	r.heap[0] = r.heap[n]
	r.heap = r.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rc := l + 1; rc < n && r.heap[rc].at < r.heap[l].at {
			m = rc
		}
		if r.heap[i].at <= r.heap[m].at {
			break
		}
		r.heap[i], r.heap[m] = r.heap[m], r.heap[i]
		i = m
	}
	return wid
}

// --- SM-side ring maintenance -------------------------------------------

// ringWakeDue re-arms every heap-parked warp whose wake cycle has arrived;
// runs at the top of each pass, so a warp parked until cycle t is examined
// by the pass at t — the same pass on which the linear scan's readyAt
// guard would have let it through. (Wheel-parked warps are re-armed by
// merge when the clock advances, before this runs.)
func (sm *SM) ringWakeDue() {
	for sm.ring.due(sm.cycle) {
		w := sm.warps[sm.ring.pop()]
		w.wake = sm.cycle
		sm.ring.set(int(w.slot))
	}
}

// ringParkScan parks the warp at position pos until cycle `at`, mid-scan:
// the wheel/heap entry replaces the per-pass wakeAt the linear scan
// re-derives, and wakeAt(at) keeps THIS pass's nextWake identical (the
// scan read the index minimum before this entry existed).
func (sm *SM) ringParkScan(w *Warp, pos int, at int64) {
	w.wake = at
	sm.ring.clear(pos)
	sm.ring.park(at, sm.cycle, pos, int32(w.local))
	sm.wakeAt(at)
}

// ringParkColl parks the warp at position pos until the pass's first
// collector-free cycle and marks it collector-bound.
func (sm *SM) ringParkColl(w *Warp, pos int) {
	sm.ringParkScan(w, pos, sm.collMin)
	sm.ring.coll[pos>>6] |= 1 << (pos & 63)
}

// removeActive compacts the active list, dropping every warp that left
// stateActive during the current issue pass (deactivated, at a barrier, or
// finished) while preserving the order of the remaining entries — without
// allocating an index set per call. Compaction shifts positions down, so
// the armed and wheel masks are re-derived from each kept warp's wake
// cycle at its new position (see the membership invariant on readyRing),
// and collector-bound bits move with their warps (new positions never
// exceed old ones, so the move is in place). Heap entries are
// position-independent (they carry the warp index) and survive untouched.
func (sm *SM) removeActive() {
	r := &sm.ring
	for i := 0; i < r.words; i++ {
		r.armed[i] = 0
	}
	for occ := r.occupied; occ != 0; occ &= occ - 1 {
		base := bits.TrailingZeros64(occ) * r.words
		for i := 0; i < r.words; i++ {
			r.buckets[base+i] = 0
		}
	}
	r.occupied = 0

	now := sm.cycle
	out := sm.active[:0]
	for i, wid := range sm.active {
		w := sm.warps[wid]
		bound := r.coll[i>>6]&(1<<(i&63)) != 0
		r.coll[i>>6] &^= 1 << (i & 63)
		if w.state != stateActive {
			continue
		}
		pos := len(out)
		w.slot = int32(pos)
		if bound {
			r.coll[pos>>6] |= 1 << (pos & 63)
			if r.collAt > w.wake {
				w.wake = r.collAt
			}
		}
		if w.wake <= now {
			r.set(pos)
		} else if w.wake-now <= ringBuckets {
			b := int(w.wake & (ringBuckets - 1))
			r.buckets[b*r.words+pos>>6] |= 1 << (pos & 63)
			r.occupied |= 1 << b
		}
		// else: far-parked; its heap entry carries the warp index.
		out = append(out, wid)
	}
	sm.active = out
}

// issueCycleIndexed is the indexed issue scan: identical arbitration to
// the linear reference scan (greedy-then-oldest round-robin from rr%n,
// wrapping, up to IssueWidth issues), but it walks only armed positions.
// Blocked warps were parked with their wake cycles when they blocked, so
// the passes between block and wake never touch them — visitActive proves
// each skipped visit would have been a no-op.
func (sm *SM) issueCycleIndexed() int {
	sm.collMin = 0
	sm.nextWake = sm.ring.minAt(sm.cycle)
	n := len(sm.active)
	if n == 0 {
		return 0
	}
	issued, removed := 0, 0
	now := sm.cycle
	width := sm.cfg.IssueWidth

	// Two segments replace the wrapping modulo walk: [start, n), then
	// [0, start). During the scan armed bits are only CLEARED — at the
	// visited position, or at unvisited collector-bound positions by a bulk
	// re-park — so the single-word fast path iterates a copied word and
	// masks it with the live word after each visit.
	//
	// rr < n on entry (every epilogue and rotation keeps it in range and
	// refill only grows the set), so the linear scan's rr%n is a no-op; the
	// branch keeps the defensive reduction without paying an integer
	// division per pass.
	start := sm.rr
	if start >= n {
		start %= n
	}
	if sm.ring.words == 1 {
		// One mask word (up to 64 active slots — every default
		// configuration): split the word at the rotation point and
		// iterate set bits directly.
		armed := &sm.ring.armed[0]
		for m := *armed &^ (1<<start - 1); m != 0 && issued < width; m &= (m - 1) & *armed {
			di, dr := sm.visitActive(bits.TrailingZeros64(m), now)
			issued += di
			removed += dr
		}
		for m := *armed & (1<<start - 1); m != 0 && issued < width; m &= (m - 1) & *armed {
			di, dr := sm.visitActive(bits.TrailingZeros64(m), now)
			issued += di
			removed += dr
		}
	} else {
		lo, hi := start, n
		for seg := 0; seg < 2 && issued < width; seg++ {
			for pos := sm.ring.nextArmed(lo, hi); pos != -1; pos = sm.ring.nextArmed(pos+1, hi) {
				di, dr := sm.visitActive(pos, now)
				issued += di
				removed += dr
				if issued >= width {
					break
				}
			}
			lo, hi = 0, start
		}
	}

	if removed > 0 {
		sm.removeActive()
	}
	// Greedy-then-oldest arbitration: keep priority on the current warp
	// while it issues (issued > 0 keeps rr), advance otherwise. Greedy
	// priority staggers the warps' progress through the kernel, which is
	// what lets one warp's PREFETCH overlap other warps' execution instead
	// of all warps reaching their PREFETCH in lockstep. The modulos are
	// needed only when compaction shrank the set; otherwise rr < n already,
	// so the advance is a compare-and-wrap.
	if n2 := len(sm.active); n2 == 0 {
		sm.rr = 0
	} else if removed > 0 {
		if issued == 0 {
			sm.rr = (sm.rr + 1) % n2
		} else {
			sm.rr = sm.rr % n2
		}
	} else if issued == 0 {
		sm.rr++
		if sm.rr == n2 {
			sm.rr = 0
		}
	}
	return issued
}

// visitActive examines the warp at active position pos — the indexed
// equivalent of one iteration of the linear scan's loop body, returning
// (issued delta, removed delta). Every branch either acts exactly as the
// linear scan does, or parks/keeps the warp so that the passes the index
// skips are provably the passes on which the linear scan would have
// re-derived the same block and skipped the warp anyway:
//
//   - readyAt in the future (prefetch stall, activation refetch): fixed
//     wake time, park until it — the linear scan's readyAt guard skips
//     the warp on every intervening pass;
//   - scoreboard block without a deactivation decision: the warp's own
//     scoreboard only changes when IT issues, so the arrival time is
//     fixed — park until it (this is PR 5's "permanent refusal" argument,
//     now applied to the scan itself);
//   - scoreboard block whose deactivation hinges on hasEarlierCandidate:
//     the inactive pool can change on any non-idle pass (another warp
//     deactivating), so the warp STAYS ARMED and is re-examined every
//     pass, exactly like the linear scan;
//   - collector starvation: free times only move later (a claim needs a
//     free collector, and none is free while anyone starves), so the
//     pass's nextCollectorFree is exact until it arrives — park until it.
//     The first starver of a pass also re-parks every armed
//     collector-bound warp there in bulk: each such warp's visit would go
//     straight to the collector check (its readyAt, unit and scoreboard
//     verdict are frozen until it issues) and park at the same cycle, and
//     the skipped visits add nothing to nextWake, which already holds it;
//   - issue / barrier / finish / deactivation: identical actions, plus
//     the corresponding ring transition (wheel offset 1, or dropping the
//     position).
func (sm *SM) visitActive(pos int, now int64) (issued, removed int) {
	// A visit ends collector-bound status; a collector park sets it again.
	sm.ring.coll[pos>>6] &^= 1 << (pos & 63)
	wid := sm.active[pos]
	w := sm.warps[wid]
	if w.state != stateActive {
		// Unreachable by invariant (bits are cleared when a warp leaves
		// the active state); mirror the linear scan's skip defensively.
		sm.ring.clear(pos)
		return 0, 0
	}
	if w.readyAt > now {
		sm.ringParkScan(w, pos, w.readyAt)
		return 0, 0
	}
	m := &sm.meta[w.pc]

	// PREFETCH at unit boundary. Without a partition m.unit and CurUnit
	// are both -1.
	if uid := int(m.unit); uid != w.Regs.CurUnit {
		stall := sm.rf.OnUnitEnter(sm.cycle, w.Regs, uid, sm.part.Units[uid].WorkingSet)
		if stall <= sm.cycle {
			stall = sm.cycle + 1
		}
		sm.st.PrefetchStallCycles += stall - sm.cycle
		w.readyAt = stall
		sm.ringParkScan(w, pos, stall)
		return 0, 0
	}

	// Scoreboard. A warp blocked on a load result for longer than the
	// threshold (i.e. a data-cache miss, not an L1 hit or ALU chain) is
	// descheduled by the two-level scheduler — but only when some inactive
	// warp could make use of the slot sooner, so eagerly activated warps
	// are not bounced straight back (swap churn).
	//
	// sbOK skips the re-evaluation on wake: the warp has not issued since
	// the evaluation that parked it, so its scoreboard is frozen and the
	// stored verdict ("satisfied from the park's wake cycle on") is
	// exactly what the linear scan would re-derive here. Watch warps
	// (deactivation pending a pool candidate) never set it — their
	// per-pass re-evaluation is load-bearing, because blockedOnLoad is
	// relative to the current cycle.
	if !w.sbOK {
		if ready, onLoad := w.operandsReadyAt(m, sm.cycle); ready > sm.cycle {
			if sm.twoLevel() && onLoad && ready-sm.cycle >= sm.cfg.DeactivateThreshold {
				if sm.hasEarlierCandidate(ready) {
					sm.ring.clear(pos)
					sm.deactivate(w, ready)
					return 0, 1
				}
				// Deactivation hinges on an earlier candidate appearing
				// in the pool — an event the index cannot see — so this
				// warp stays armed and is re-examined every pass until
				// its operands arrive, exactly as the linear scan does.
				sm.wakeAt(ready)
				return 0, 0
			}
			// Permanent refusal (PR 5): the warp can neither issue nor
			// deactivate before `ready`, and its own scoreboard cannot
			// change while it is blocked — park until the arrival.
			w.readyAt = ready
			w.sbOK = true
			sm.ringParkScan(w, pos, ready)
			return 0, 0
		}
		w.sbOK = true
	}

	// Structural hazard: operand collector. collMin != 0 means a warp
	// already starved this pass: every collector was busy at this cycle
	// and claims only occupy more, so this warp starves too — park at the
	// same horizon without rescanning (freeCollector would return -1, as
	// it does for every later starved warp in the linear scan's pass).
	col := -1
	if m.nsrc > 0 {
		if sm.collMin != 0 {
			sm.ringParkColl(w, pos)
			return 0, 0
		}
		if col = sm.freeCollector(); col == -1 {
			sm.collMin = sm.nextCollectorFree()
			// No collector frees before collMin (claims need a free one),
			// and this warp's scoreboard stays satisfied — park until the
			// first collector frees, where rotation order re-arbitrates.
			// Every armed collector-bound warp would do the same on its
			// visit, so they all go there now.
			sm.ringParkColl(w, pos)
			sm.ring.parkCollBound(sm.collMin, now)
			return 0, 0
		}
	}

	// Barrier.
	if m.op == isa.OpBar {
		w.advance(sm.prog.Instrs, m)
		w.retired++
		sm.instrs++
		sm.st.CtrlOps++
		w.state = stateBarrier
		w.sbOK = false
		sm.ctaBarrier[w.cta]++
		sm.ring.clear(pos)
		sm.maybeReleaseBarrier(int(w.cta))
		return 1, 1
	}

	sm.issueInstr(w, m, col)
	w.sbOK = false
	if w.state == stateFinished {
		sm.finished++
		sm.ctaFin[w.cta]++
		w.Regs.Reset(sm.cfg.RegsPerInterval)
		sm.ring.clear(pos)
		sm.maybeReleaseBarrier(int(w.cta))
		return 1, 1
	}

	// Issued: readyAt is now cycle+1. The warp's NEXT instruction's
	// scoreboard verdict is already decided — its own registers cannot
	// change until it issues again — so evaluate it here and, when the
	// verdict is a permanent refusal (blocked past cycle+1 with no
	// deactivation decision pending), park straight to the arrival and
	// skip the intermediate visit at cycle+1 outright. The skipped visit
	// is provably the one that would have re-derived this verdict and
	// parked anyway; its wakeAt contribution only matters on idle passes,
	// where the wheel/heap minima supply the same value. Instructions at a
	// prefetch-unit boundary and potential deactivations (whose
	// hasEarlierCandidate test must read the pool at cycle+1) fall back to
	// a normal visit.
	wake := now + 1
	if m2 := &sm.meta[w.pc]; int(m2.unit) == w.Regs.CurUnit {
		if ready, onLoad := w.operandsReadyAt(m2, now+1); ready > now+1 {
			if !(onLoad && ready-(now+1) >= sm.cfg.DeactivateThreshold && sm.twoLevel()) {
				w.readyAt = ready
				w.sbOK = true
				wake = ready
			}
		} else {
			// Satisfied at cycle+1: record it so the visit there goes
			// straight to the structural checks.
			w.sbOK = true
		}
	}
	w.wake = wake
	sm.ring.clear(pos)
	sm.ring.park(wake, now, pos, int32(w.local))
	return 1, 0
}
