package regfile

import (
	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// WarpRegs is the per-warp register bookkeeping shared by all cached
// designs. It models the Warp Control Block of Figure 7 (register cache
// address table + working-set bit-vector + liveness bit-vector) and the
// per-warp address allocation unit of Figure 8 (the unused and occupied
// queues become two rings of cacheBanks entries: free banks, and resident
// registers in allocation order for FIFO replacement).
type WarpRegs struct {
	ID int

	// Present is the working-set/valid bit-vector: registers currently
	// resident in the register-file cache.
	Present bitvec.Vector
	// Dirty marks resident registers modified since they were fetched.
	Dirty bitvec.Vector
	// Live is the runtime liveness bit-vector of LTRF+ (§3.2): cleared at
	// warp start, set on register writes, cleared by dead-operand bits.
	Live bitvec.Vector
	// WS is the working-set bit-vector of the current prefetch unit, used
	// to re-fetch after reactivation in the middle of a unit (§4.2 Warp
	// Stall).
	WS bitvec.Vector

	// CurUnit is the prefetch unit the warp is executing (-1 before the
	// first PREFETCH).
	CurUnit int

	// addrTable is the register cache address table: architectural
	// register -> cache bank, or -1 when not resident.
	addrTable [isa.MaxArchRegs]int16
	// freeBanks is the unused queue of the address allocation unit: a ring
	// buffer (at most cacheBanks entries are ever free), so the dequeue/
	// enqueue cycle of allocate/freeSlot never reallocates.
	freeBanks []int16
	freeHead  int
	freeLen   int
	// fifo is the occupied queue: resident registers in allocation order,
	// oldest at fifoHead, for FIFO replacement. It is a ring of cacheBanks
	// entries — every occupied bank holds exactly one entry, so fifoLen +
	// freeLen == cacheBanks and the ring never overflows. Every move costs
	// a fixed amount: allocate appends, popOldest dequeues the head, and
	// removals from the middle (PREFETCH victims, strand eviction, flush)
	// are batched into one compacting walk per operation.
	fifo     []isa.Reg
	fifoHead int
	fifoLen  int
}

// NewWarpRegs creates the bookkeeping for one warp with a cache partition of
// cacheBanks registers.
func NewWarpRegs(id, cacheBanks int) *WarpRegs {
	w := &WarpRegs{ID: id}
	w.Reset(cacheBanks)
	return w
}

// Reset clears all state and re-fills the unused queue (kernel relaunch).
func (w *WarpRegs) Reset(cacheBanks int) {
	w.Present = bitvec.Vector{}
	w.Dirty = bitvec.Vector{}
	w.Live = bitvec.Vector{}
	w.WS = bitvec.Vector{}
	w.CurUnit = -1
	for i := range w.addrTable {
		w.addrTable[i] = -1
	}
	if cap(w.freeBanks) < cacheBanks {
		w.freeBanks = make([]int16, cacheBanks)
		w.fifo = make([]isa.Reg, cacheBanks)
	} else {
		w.freeBanks = w.freeBanks[:cacheBanks]
		w.fifo = w.fifo[:cacheBanks]
	}
	for i := 0; i < cacheBanks; i++ {
		w.freeBanks[i] = int16(i)
	}
	w.freeHead = 0
	w.freeLen = cacheBanks
	w.fifoHead = 0
	w.fifoLen = 0
}

// CacheBank returns the cache bank holding register r, or -1.
func (w *WarpRegs) CacheBank(r isa.Reg) int { return int(w.addrTable[r]) }

// FreeSlots returns the number of unallocated cache banks.
func (w *WarpRegs) FreeSlots() int { return w.freeLen }

// allocate assigns a free cache bank to register r (Figure 8: dequeue the
// unused queue, enqueue the occupied queue). Returns false when the
// partition is full.
func (w *WarpRegs) allocate(r isa.Reg) bool {
	if w.addrTable[r] != -1 {
		return true
	}
	if w.freeLen == 0 {
		return false
	}
	bank := w.freeBanks[w.freeHead]
	w.freeHead = w.ringNext(w.freeHead)
	w.freeLen--
	w.Present.Set(int(r))
	w.occupy(r, bank)
	return true
}

// occupy records r in cache bank bank and appends it to the occupied
// queue. The caller has taken bank off the unused queue and keeps the
// valid bit-vector.
func (w *WarpRegs) occupy(r isa.Reg, bank int16) {
	w.addrTable[r] = bank
	w.fifo[w.ringAdd(w.fifoHead, w.fifoLen)] = r
	w.fifoLen++
}

// freeSlot returns resident register r's cache bank to the tail of the
// unused queue. It does not touch the occupied queue: the caller has
// already taken r off it (popOldest, takeOldest) or removes it in the same
// operation (releaseSet).
func (w *WarpRegs) freeSlot(r isa.Reg) {
	bank := w.addrTable[r]
	w.addrTable[r] = -1
	w.Present.Clear(int(r))
	w.Dirty.Clear(int(r))
	w.freeBanks[w.ringAdd(w.freeHead, w.freeLen)] = bank
	w.freeLen++
}

// popOldest dequeues the oldest resident register (FIFO replacement) from
// the occupied queue, or returns RegNone when the partition is empty. Its
// slot stays allocated until the caller frees it.
func (w *WarpRegs) popOldest() isa.Reg {
	if w.fifoLen == 0 {
		return isa.RegNone
	}
	r := w.fifo[w.fifoHead]
	w.fifoHead = w.ringNext(w.fifoHead)
	w.fifoLen--
	return r
}

// takeOldest dequeues, in one walk that compacts the occupied queue, the n
// oldest resident registers outside keep, appending them to dst in age
// order; fewer come back when fewer qualify. The other entries keep their
// order, and every slot stays allocated until the caller frees it.
func (w *WarpRegs) takeOldest(keep bitvec.Vector, n int, dst []isa.Reg) []isa.Reg {
	src, out := w.fifoHead, w.fifoHead
	taken := 0
	for k := 0; k < w.fifoLen; k++ {
		r := w.fifo[src]
		if taken < n && !keep.Test(int(r)) {
			dst = append(dst, r)
			taken++
		} else {
			w.fifo[out] = r
			out = w.ringNext(out)
		}
		src = w.ringNext(src)
	}
	w.fifoLen -= taken
	return dst
}

// releaseSet frees every register of set, which must all be resident:
// their banks join the unused queue in ascending register order, and one
// compacting walk drops them from the occupied queue.
func (w *WarpRegs) releaseSet(set bitvec.Vector) {
	set.ForEach(func(i int) { w.freeSlot(isa.Reg(i)) })
	src, out := w.fifoHead, w.fifoHead
	kept := 0
	for k := 0; k < w.fifoLen; k++ {
		if r := w.fifo[src]; !set.Test(int(r)) {
			w.fifo[out] = r
			out = w.ringNext(out)
			kept++
		}
		src = w.ringNext(src)
	}
	w.fifoLen = kept
}

// ringNext and ringAdd step an index of the two cacheBanks-entry rings
// (unused and occupied queues) with a compare instead of a division.
func (w *WarpRegs) ringNext(i int) int {
	if i++; i == len(w.fifo) {
		return 0
	}
	return i
}

func (w *WarpRegs) ringAdd(i, k int) int {
	if i += k; i >= len(w.fifo) {
		i -= len(w.fifo)
	}
	return i
}

// WCBStorageBits returns the per-warp WCB storage cost in bits for the
// given architectural register count (§4.3 Storage Cost): a 5-bit address
// table entry per register (4-bit bank number for 16 cache banks + valid),
// a 3-bit warp-offset address, and the 256-bit working-set and liveness
// bit-vectors.
func WCBStorageBits(archRegs int) int {
	return archRegs*5 + 3 + 256 + 256
}
