package regfile

import (
	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// cached bundles the structures shared by every register-file-cache design:
// the main RF banks, the register cache banks, and the narrow crossbar that
// moves registers between the two levels (§4.2 Interconnect).
//
// The narrow crossbar has 1/4 the baseline bandwidth (4 register lanes
// instead of 16) and a 4-cycle traversal latency instead of 1; it is
// pipelined, so a lane accepts a new register every cycle (§4.2: "the
// narrower crossbar would exhibit a traversal latency 4x larger ... and far
// larger latency when the crossbar is saturated and queuing effects become
// dominant" — the lane BankSet produces exactly those queueing effects).
//
// Every register move costs a fixed amount: the lane and write-back
// interval are precomputed, victims leave the occupied queue in one walk
// per operation (WarpRegs.takeOldest, releaseSet), and each eviction frees
// its slot in constant time. LTRF's PREFETCH goes further and assigns each
// fetch its bank in closed form (LTRF.OnUnitEnter). What stays observable
// is the order of the moves — write-backs and fetches on each crossbar
// lane, and the banks pushed onto the unused queue — which is the order of
// the per-register reference in reference_test.go. The three bank sets are
// held by value, so a bank access is one indirection from the design.
type cached struct {
	cfg   Config
	main  BankSet
	cache BankSet
	xbar  BankSet // per-lane pipelined occupancy (1 cycle per register)
	// lane maps each main-RF bank to its crossbar lane (bank mod lanes),
	// and wbInit is the main bank's write initiation interval a write-back
	// pays after its lane slot: both fixed per design point, so no
	// register move pays a division or a float rounding.
	lane   []int32
	wbInit int64
	net    int64
	st     Stats
	// victims is PREFETCH's eviction scratch (one entry per cache bank).
	victims []isa.Reg
}

func newCached(cfg Config) cached {
	lanes := 16 / cfg.XbarCyclesPerReg // narrow: 4 lanes; wide ablation: 16
	if lanes < 1 {
		lanes = 1
	}
	c := cached{
		cfg:     cfg,
		main:    *NewBankSet(cfg.Banks, cfg.MainBankInitiation(), cfg.MainBankCycles()),
		cache:   *NewBankSet(cfg.CacheBanks, 1, cfg.CacheCycles),
		xbar:    *NewBankSet(lanes, 1, cfg.XbarCyclesPerReg),
		lane:    make([]int32, cfg.Banks),
		wbInit:  int64(cfg.MainBankInitiation()),
		net:     int64(cfg.MainNetCycles()),
		victims: make([]isa.Reg, 0, cfg.CacheBanks),
	}
	for b := range c.lane {
		c.lane[b] = int32(b % lanes)
	}
	return c
}

func (c *cached) Stats() *Stats  { return &c.st }
func (c *cached) Config() Config { return c.cfg }

// readCacheReg reads a resident register from its cache bank after the WCB
// address-table lookup. r must be resident: a negative bank is a
// bookkeeping error and indexes out of range.
func (c *cached) readCacheReg(now int64, w *WarpRegs, r isa.Reg) int64 {
	c.st.WCBAccesses++
	return c.cache.Access(now+int64(c.cfg.WCBCycles), w.CacheBank(r))
}

// readMainReg reads a register from the main RF (exposed latency).
func (c *cached) readMainReg(now int64, w *WarpRegs, r isa.Reg) int64 {
	c.st.MainReads++
	return c.main.Access(now, mainBank(c.cfg.Banks, w.ID, int(r))) + c.net
}

// fetchReg moves one register main RF -> cache over the narrow crossbar
// (PREFETCH data path) and returns its arrival time. Both the bank read
// port and the crossbar lane are reserved at request time (the transfer is
// store-and-forward buffered), so resource timestamps stay monotone and a
// queued crossbar cannot ratchet bank reservations into the future.
func (c *cached) fetchReg(now int64, w *WarpRegs, r isa.Reg) int64 {
	c.st.MainReads++
	bank := mainBank(c.cfg.Banks, w.ID, int(r))
	bankDone := c.main.Access(now, bank)
	laneDone := c.xbar.Access(now, int(c.lane[bank]))
	if bankDone > laneDone {
		return bankDone
	}
	return laneDone
}

// writebackReg moves one register cache -> main RF over the crossbar.
// Register file banks have a separate write port fed from the crossbar's
// buffer, so write-backs occupy crossbar bandwidth but never block the
// read path.
func (c *cached) writebackReg(now int64, w *WarpRegs, r isa.Reg) int64 {
	c.st.MainWrites++
	c.st.WritebackRegs++
	return c.xbar.Access(now, int(c.lane[mainBank(c.cfg.Banks, w.ID, int(r))])) + c.wbInit
}

// installReg allocates a slot for r, evicting the oldest resident register
// (FIFO replacement) when the partition is full. A dirty victim is written
// back first; its slot is reusable immediately while the write-back drains
// in the background.
func (c *cached) installReg(now int64, w *WarpRegs, r isa.Reg) {
	if w.Present.Test(int(r)) {
		return
	}
	if w.FreeSlots() == 0 {
		victim := w.popOldest()
		if w.Dirty.Test(int(victim)) {
			c.writebackReg(now, w, victim)
		}
		w.freeSlot(victim)
	}
	w.allocate(r)
}

// flush writes back the resident registers in writeBack, in ascending
// register order, and releases the whole partition; it returns the last
// write-back's completion time.
func (c *cached) flush(now int64, w *WarpRegs, writeBack bitvec.Vector) int64 {
	done := now
	writeBack.Intersect(w.Present).ForEach(func(i int) {
		if t := c.writebackReg(now, w, isa.Reg(i)); t > done {
			done = t
		}
	})
	w.releaseSet(w.Present)
	return done
}
