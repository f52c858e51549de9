package regfile

// The per-register reference for the cached designs' bookkeeping: the
// slice FIFO whose every eviction rescans the allocation order and whose
// every release memmoves it, and the map-backed shared RFC. Production code
// batches these moves (one compacting walk per PREFETCH, strand boundary
// or flush; membership in WarpRegs.Present; ring FIFOs), and
// FuzzRegfileBookkeeping holds it to this reference call for call. The
// simulator-level equivalence suites cannot: both of their stacks share
// this package.

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// refWarp is the reference per-warp bookkeeping (WarpRegs before batching).
type refWarp struct {
	ID                   int
	Present, Dirty, Live bitvec.Vector
	WS                   bitvec.Vector
	CurUnit              int
	addrTable            [isa.MaxArchRegs]int16
	freeBanks            []int16
	freeHead, freeLen    int
	fifo                 []isa.Reg
}

func newRefWarp(id, cacheBanks int) *refWarp {
	w := &refWarp{ID: id, CurUnit: -1}
	for i := range w.addrTable {
		w.addrTable[i] = -1
	}
	w.freeBanks = make([]int16, cacheBanks)
	for i := range w.freeBanks {
		w.freeBanks[i] = int16(i)
	}
	w.freeLen = cacheBanks
	return w
}

func (w *refWarp) allocate(r isa.Reg) bool {
	if w.addrTable[r] != -1 {
		return true
	}
	if w.freeLen == 0 {
		return false
	}
	bank := w.freeBanks[w.freeHead]
	w.freeHead++
	if w.freeHead == len(w.freeBanks) {
		w.freeHead = 0
	}
	w.freeLen--
	w.addrTable[r] = bank
	w.Present.Set(int(r))
	w.fifo = append(w.fifo, r)
	return true
}

func (w *refWarp) release(r isa.Reg) {
	bank := w.addrTable[r]
	if bank == -1 {
		return
	}
	w.addrTable[r] = -1
	w.Present.Clear(int(r))
	w.Dirty.Clear(int(r))
	tail := w.freeHead + w.freeLen
	if tail >= len(w.freeBanks) {
		tail -= len(w.freeBanks)
	}
	w.freeBanks[tail] = bank
	w.freeLen++
	for i, fr := range w.fifo {
		if fr == r {
			w.fifo = append(w.fifo[:i], w.fifo[i+1:]...)
			break
		}
	}
}

func (w *refWarp) fifoVictim() isa.Reg {
	if len(w.fifo) == 0 {
		return isa.RegNone
	}
	return w.fifo[0]
}

// refCached is the reference cached-design core.
type refCached struct {
	cfg               Config
	main, cache, xbar *BankSet
	xbarLanes         int
	net               int64
	st                Stats
}

func newRefCached(cfg Config) refCached {
	lanes := 16 / cfg.XbarCyclesPerReg
	if lanes < 1 {
		lanes = 1
	}
	return refCached{
		cfg:       cfg,
		main:      NewBankSet(cfg.Banks, cfg.MainBankInitiation(), cfg.MainBankCycles()),
		cache:     NewBankSet(cfg.CacheBanks, 1, cfg.CacheCycles),
		xbar:      NewBankSet(lanes, 1, cfg.XbarCyclesPerReg),
		xbarLanes: lanes,
		net:       int64(cfg.MainNetCycles()),
	}
}

func (c *refCached) readCacheReg(now int64, w *refWarp, r isa.Reg) int64 {
	c.st.WCBAccesses++
	bank := int(w.addrTable[r])
	if bank < 0 {
		bank = 0
	}
	return c.cache.Access(now+int64(c.cfg.WCBCycles), bank)
}

func (c *refCached) readMainReg(now int64, w *refWarp, r isa.Reg) int64 {
	c.st.MainReads++
	return c.main.Access(now, mainBank(c.cfg.Banks, w.ID, int(r))) + c.net
}

func (c *refCached) fetchReg(now int64, w *refWarp, r isa.Reg) int64 {
	c.st.MainReads++
	bank := mainBank(c.cfg.Banks, w.ID, int(r))
	bankDone := c.main.Access(now, bank)
	laneDone := c.xbar.Access(now, bank%c.xbarLanes)
	if bankDone > laneDone {
		return bankDone
	}
	return laneDone
}

func (c *refCached) writebackReg(now int64, w *refWarp, r isa.Reg) int64 {
	c.st.MainWrites++
	c.st.WritebackRegs++
	bank := mainBank(c.cfg.Banks, w.ID, int(r))
	return c.xbar.Access(now, bank%c.xbarLanes) + int64(c.cfg.MainBankInitiation())
}

func (c *refCached) evictFor(now int64, w *refWarp) {
	victim := w.fifoVictim()
	if victim == isa.RegNone {
		return
	}
	if w.Dirty.Test(int(victim)) {
		c.writebackReg(now, w, victim)
	}
	w.release(victim)
}

func (c *refCached) evictForAvoiding(now int64, w *refWarp, protect bitvec.Vector, plusLive bool) {
	victim := isa.RegNone
	for _, r := range w.fifo {
		if !protect.Test(int(r)) {
			victim = r
			break
		}
	}
	if victim == isa.RegNone {
		victim = w.fifoVictim()
	}
	if victim == isa.RegNone {
		return
	}
	if w.Dirty.Test(int(victim)) && (!plusLive || w.Live.Test(int(victim))) {
		c.writebackReg(now, w, victim)
	}
	w.release(victim)
}

func (c *refCached) installReg(now int64, w *refWarp, r isa.Reg) {
	if w.Present.Test(int(r)) {
		return
	}
	if w.freeLen == 0 {
		c.evictFor(now, w)
	}
	w.allocate(r)
}

func (c *refCached) flush(now int64, w *refWarp, writeBack bitvec.Vector) int64 {
	done := now
	w.Present.ForEach(func(i int) {
		r := isa.Reg(i)
		if writeBack.Test(i) {
			if t := c.writebackReg(now, w, r); t > done {
				done = t
			}
		}
		w.release(r)
	})
	return done
}

// refSubsystem is Subsystem over the reference bookkeeping.
type refSubsystem interface {
	ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64
	WriteResult(now int64, w *refWarp, dst isa.Reg) int64
	OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64
	OnActivate(now int64, w *refWarp) int64
	OnDeactivate(now int64, w *refWarp) int64
	core() *refCached
}

func (c *refCached) core() *refCached { return c }

// refLTRF is the reference LTRF/LTRF+.
type refLTRF struct {
	refCached
	plus bool
}

func (c *refLTRF) ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			t = c.readCacheReg(start, w, r)
		} else {
			c.st.FallbackReads++
			t = c.readMainReg(start, w, r)
			c.installReg(start, w, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

func (c *refLTRF) WriteResult(now int64, w *refWarp, dst isa.Reg) int64 {
	c.st.CacheWrites++
	if !w.Present.Test(int(dst)) {
		c.installReg(now, w, dst)
	}
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

func (c *refLTRF) OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64 {
	if unitID == w.CurUnit {
		return now
	}
	c.st.Prefetches++
	done := now
	ws.Diff(w.Present).ForEach(func(i int) {
		r := isa.Reg(i)
		if w.freeLen == 0 {
			c.evictForAvoiding(now, w, ws, c.plus)
		}
		w.allocate(r)
		if c.plus && !w.Live.Test(i) {
			return
		}
		c.st.PrefetchRegs++
		if t := c.fetchReg(now, w, r); t > done {
			done = t
		}
	})
	w.WS = ws
	w.CurUnit = unitID
	return done
}

func (c *refLTRF) OnActivate(now int64, w *refWarp) int64 {
	if w.CurUnit == -1 {
		return now
	}
	c.st.Activations++
	done := now
	w.WS.ForEach(func(i int) {
		r := isa.Reg(i)
		if w.Present.Test(i) {
			return
		}
		if w.freeLen == 0 {
			c.evictFor(now, w)
		}
		w.allocate(r)
		if c.plus && !w.Live.Test(i) {
			return
		}
		c.st.ActivationRegs++
		if t := c.fetchReg(now, w, r); t > done {
			done = t
		}
	})
	return done
}

func (c *refLTRF) OnDeactivate(now int64, w *refWarp) int64 {
	wb := w.Present.Intersect(w.Dirty)
	if c.plus {
		wb = wb.Intersect(w.Live)
	}
	return c.flush(now, w, wb)
}

// refSHRF is the reference SHRF.
type refSHRF struct{ refCached }

func (c *refSHRF) ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			t = c.readCacheReg(start, w, r)
		} else {
			t = c.readMainReg(start, w, r)
			c.installReg(start, w, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

func (c *refSHRF) WriteResult(now int64, w *refWarp, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.installReg(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

func (c *refSHRF) OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64 {
	if unitID == w.CurUnit {
		return now
	}
	c.st.Prefetches++
	w.Present.Diff(ws).ForEach(func(i int) {
		r := isa.Reg(i)
		if w.Dirty.Test(i) && w.Live.Test(i) {
			c.writebackReg(now, w, r)
		}
		w.release(r)
	})
	w.WS = ws
	w.CurUnit = unitID
	return now
}

func (c *refSHRF) OnActivate(now int64, w *refWarp) int64 { return now }

func (c *refSHRF) OnDeactivate(now int64, w *refWarp) int64 {
	return c.flush(now, w, w.Dirty.Intersect(w.Live))
}

// refRFC is the reference shared RFC: a map for membership and a FIFO
// slice re-sliced from the front.
type refRFCKey struct {
	warp int
	reg  isa.Reg
}

type refRFCEntry struct {
	key refRFCKey
	wr  *refWarp
}

type refRFC struct {
	refCached
	slots   int
	fifo    []refRFCEntry
	present map[refRFCKey]bool
}

func newRefRFC(cfg Config) *refRFC {
	slots := cfg.SharedCacheRegs
	if slots < 1 {
		slots = cfg.CacheBanks * 8
	}
	return &refRFC{refCached: newRefCached(cfg), slots: slots, present: map[refRFCKey]bool{}}
}

func (c *refRFC) install(now int64, w *refWarp, r isa.Reg) {
	key := refRFCKey{w.ID, r}
	if c.present[key] {
		return
	}
	if len(c.fifo) >= c.slots {
		victim := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.present, victim.key)
		if victim.wr.Dirty.Test(int(victim.key.reg)) {
			c.writebackReg(now, victim.wr, victim.key.reg)
		}
		victim.wr.Present.Clear(int(victim.key.reg))
		victim.wr.Dirty.Clear(int(victim.key.reg))
	}
	c.fifo = append(c.fifo, refRFCEntry{key, w})
	c.present[key] = true
	w.Present.Set(int(r))
}

func (c *refRFC) ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if c.present[refRFCKey{w.ID, r}] {
			c.st.CacheReadHits++
			c.st.WCBAccesses++
			t = c.cache.Access(start+int64(c.cfg.WCBCycles), (int(r)+w.ID*5)%c.cfg.CacheBanks)
		} else {
			t = c.readMainReg(start, w, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

func (c *refRFC) WriteResult(now int64, w *refWarp, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.install(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

func (c *refRFC) OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64 {
	w.CurUnit = unitID
	return now
}

func (c *refRFC) OnActivate(now int64, w *refWarp) int64 { return now }

func (c *refRFC) OnDeactivate(now int64, w *refWarp) int64 {
	done := now
	kept := c.fifo[:0]
	for _, e := range c.fifo {
		if e.key.warp != w.ID {
			kept = append(kept, e)
			continue
		}
		delete(c.present, e.key)
		if w.Dirty.Test(int(e.key.reg)) {
			if t := c.writebackReg(now, w, e.key.reg); t > done {
				done = t
			}
		}
		w.Present.Clear(int(e.key.reg))
		w.Dirty.Clear(int(e.key.reg))
	}
	c.fifo = kept
	return done
}

// FuzzRegfileBookkeeping drives a production cached design and its
// reference with one random call stream — unit entries (PREFETCH or strand
// boundary), operand reads, result writes, activations, deactivations, and
// liveness and dirty-bit flips — over a few warps and a fuzzed geometry
// (partition and shared-cache sizes, bank counts, crossbar lane counts
// including non-powers of two, latencies). After every call both sides
// must agree on the returned cycle, Stats, every bank and crossbar
// reservation, and each warp's registers: Present, Dirty, cache-bank
// assignment, FIFO order and the unused-bank queue.
func FuzzRegfileBookkeeping(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint8(3), uint8(6), uint8(4), uint8(8), uint8(4), []byte("\x00\x05\xff\x0f\x00\x02\x11\x21\x40\x30\x05\x81\x00\xf0\xff\x03\x04"))
	f.Add(uint8(1), uint8(4), uint8(16), uint8(2), uint8(3), uint8(128), uint8(3), []byte("\x10\x07\xff\xff\x00\x01\x52\x13\x64\x35\x46\x20\x01\x00\xff\x0f\x07"))
	f.Add(uint8(2), uint8(8), uint8(5), uint8(1), uint8(2), uint8(16), uint8(1), []byte("\x20\x03\x33\x00\x11\x02\x12\x13\x22\x05\x06\x20\x04\xcc\x0f\x00\x01"))
	f.Add(uint8(3), uint8(16), uint8(7), uint8(3), uint8(5), uint8(5), uint8(2), []byte("\x01\x11\x21\x31\x02\x12\x22\x32\x41\x01\x11\x03\x04\x14\x24\x01\x02"))
	f.Fuzz(func(t *testing.T, design, cacheBanks, banks, latX, xbar, shared, ports uint8, ops []byte) {
		cfg := Baseline(1+float64(latX%8)/2, 1+int(cacheBanks%24))
		cfg.Banks = 1 + int(banks%32)
		cfg.XbarCyclesPerReg = 1 + int(xbar%20)
		cfg.SharedCacheRegs = int(shared % 160)
		cfg.OperandPorts = 1 + int(ports%3)
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		var sub Subsystem
		var ref refSubsystem
		switch design % 4 {
		case 0:
			sub, ref = NewLTRF(cfg, false), &refLTRF{refCached: newRefCached(cfg)}
		case 1:
			sub, ref = NewLTRF(cfg, true), &refLTRF{refCached: newRefCached(cfg), plus: true}
		case 2:
			sub, ref = NewSHRF(cfg), &refSHRF{newRefCached(cfg)}
		default:
			sub, ref = NewRFC(cfg), newRefRFC(cfg)
		}
		const nWarps = 3
		ws := make([]*WarpRegs, nWarps)
		rs := make([]*refWarp, nWarps)
		for i := range ws {
			ws[i] = NewWarpRegs(i+1, cfg.CacheBanks)
			rs[i] = newRefWarp(i+1, cfg.CacheBanks)
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		// Operands come from registers 0–39 so sets overlap and
		// partitions fill.
		reg := func(b byte) isa.Reg { return isa.Reg(int(b) % 40) }
		now := int64(0)
		for step := 0; len(ops) > 0; step++ {
			op := next()
			k := int(op>>4) % nWarps
			w, rw := ws[k], rs[k]
			now += int64(op & 3)
			var got, want int64
			var call string
			switch (op >> 2) & 3 {
			case 0:
				// Unit entry with a working set of up to 32 registers
				// (wider than any partition here, so the
				// victims-exhausted path runs too).
				unit := int(next() % 6)
				mask := uint64(next()) | uint64(next())<<8 | uint64(next())<<16 | uint64(next())<<24
				base := 0
				if b := next(); b >= 240 {
					base = int(b-240) * 14
				}
				var set bitvec.Vector
				for ; mask != 0; mask &= mask - 1 {
					set.Set(base + bits.TrailingZeros64(mask))
				}
				call = fmt.Sprintf("OnUnitEnter(unit %d, %v)", unit, set)
				got, want = sub.OnUnitEnter(now, w, unit, set), ref.OnUnitEnter(now, rw, unit, set)
			case 1:
				b := next()
				srcs := []isa.Reg{reg(b), reg(b >> 2), reg(next()), reg(next())}[:1+int(b>>6)]
				call = fmt.Sprintf("ReadOperands(%v)", srcs)
				got, want = sub.ReadOperands(now, w, srcs), ref.ReadOperands(now, rw, srcs)
			case 2:
				r := reg(next())
				call = fmt.Sprintf("WriteResult(R%d)", r)
				got, want = sub.WriteResult(now, w, r), ref.WriteResult(now, rw, r)
			default:
				b := next()
				switch b & 3 {
				case 0:
					call = "OnActivate"
					got, want = sub.OnActivate(now, w), ref.OnActivate(now, rw)
				case 1:
					call = "OnDeactivate"
					got, want = sub.OnDeactivate(now, w), ref.OnDeactivate(now, rw)
				case 2:
					r := int(reg(b >> 2))
					call = fmt.Sprintf("flip Live R%d", r)
					flip(&w.Live, r)
					flip(&rw.Live, r)
				default:
					r := int(reg(b >> 2))
					call = fmt.Sprintf("flip Dirty R%d", r)
					flip(&w.Dirty, r)
					flip(&rw.Dirty, r)
				}
			}
			if got != want {
				t.Fatalf("step %d warp %d %s: returned %d, reference %d", step, k, call, got, want)
			}
			if err := sameBookkeeping(sub, ref, ws, rs); err != nil {
				t.Fatalf("step %d warp %d %s: %v", step, k, call, err)
			}
		}
	})
}

func flip(v *bitvec.Vector, i int) {
	if v.Test(i) {
		v.Clear(i)
	} else {
		v.Set(i)
	}
}

// sameBookkeeping compares every observable piece of state of a production
// design and its reference.
func sameBookkeeping(sub Subsystem, ref refSubsystem, ws []*WarpRegs, rs []*refWarp) error {
	rc := ref.core()
	if *sub.Stats() != rc.st {
		return fmt.Errorf("Stats %+v, reference %+v", *sub.Stats(), rc.st)
	}
	var c *cached
	switch s := sub.(type) {
	case *LTRF:
		c = &s.cached
	case *SHRF:
		c = &s.cached
	case *RFC:
		c = &s.cached
		var order, refOrder []string
		for k := 0; k < s.n; k++ {
			e := s.fifo[(s.head+k)%len(s.fifo)]
			order = append(order, fmt.Sprintf("w%d:R%d", e.wr.ID, e.reg))
		}
		for _, e := range ref.(*refRFC).fifo {
			refOrder = append(refOrder, fmt.Sprintf("w%d:R%d", e.wr.ID, e.key.reg))
		}
		if !reflect.DeepEqual(order, refOrder) {
			return fmt.Errorf("shared FIFO %v, reference %v", order, refOrder)
		}
	}
	for name, pair := range map[string][2]*BankSet{
		"main": {&c.main, rc.main}, "cache": {&c.cache, rc.cache}, "xbar": {&c.xbar, rc.xbar},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			return fmt.Errorf("%s banks %+v, reference %+v", name, *pair[0], *pair[1])
		}
	}
	for i, w := range ws {
		rw := rs[i]
		if w.Present != rw.Present || w.Dirty != rw.Dirty || w.Live != rw.Live || w.WS != rw.WS || w.CurUnit != rw.CurUnit {
			return fmt.Errorf("warp %d bit-vectors: Present %v Dirty %v CurUnit %d, reference Present %v Dirty %v CurUnit %d",
				w.ID, w.Present, w.Dirty, w.CurUnit, rw.Present, rw.Dirty, rw.CurUnit)
		}
		if w.addrTable != rw.addrTable {
			return fmt.Errorf("warp %d cache-bank assignment differs", w.ID)
		}
		var fifo []isa.Reg
		for k := 0; k < w.fifoLen; k++ {
			fifo = append(fifo, w.fifo[(w.fifoHead+k)%len(w.fifo)])
		}
		if len(fifo) != len(rw.fifo) || (len(fifo) > 0 && !reflect.DeepEqual(fifo, rw.fifo)) {
			return fmt.Errorf("warp %d FIFO %v, reference %v", w.ID, fifo, rw.fifo)
		}
		var free, refFree []int16
		for k := 0; k < w.freeLen; k++ {
			free = append(free, w.freeBanks[(w.freeHead+k)%len(w.freeBanks)])
		}
		for k := 0; k < rw.freeLen; k++ {
			refFree = append(refFree, rw.freeBanks[(rw.freeHead+k)%len(rw.freeBanks)])
		}
		if !reflect.DeepEqual(free, refFree) {
			return fmt.Errorf("warp %d unused-bank queue %v, reference %v", w.ID, free, refFree)
		}
	}
	return nil
}
