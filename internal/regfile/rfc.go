package regfile

import (
	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

func init() {
	Register(Descriptor{
		Name:     "RFC",
		IsCached: true,
		New:      func(ctx BuildContext) (Subsystem, error) { return NewRFC(ctx.Config), nil },
	})
}

// rfcEntry is one warp-register resident in the shared cache.
type rfcEntry struct {
	wr  *WarpRegs
	reg isa.Reg
}

// RFC is the hardware register-file cache of Gebhart et al. [19] as the
// paper evaluates it (§2.3): a conventional SHARED cache over the active
// warps' registers with FIFO replacement, allocating on result writes and
// read misses, with no prefetching. Its hit rate is low for the three
// reasons §2.3 lists — warps displace each other's registers, renamed
// temporaries have little temporal locality, and there is no spatial
// locality to exploit — so read misses expose the full main-RF latency,
// capping its latency tolerance around 2x (§6.3).
//
// Membership lives in each warp's WarpRegs.Present (a warp's registers are
// resident exactly when their entries are in the FIFO), so a lookup is one
// bit test. The FIFO is a ring preallocated to the cache's capacity.
type RFC struct {
	cached
	fifo []rfcEntry // ring of len slots, oldest at head
	head int
	n    int
}

// NewRFC builds the [19]-style shared hardware register cache.
func NewRFC(cfg Config) *RFC {
	slots := cfg.SharedCacheRegs
	if slots < 1 {
		slots = cfg.CacheBanks * 8
	}
	return &RFC{
		cached: newCached(cfg),
		fifo:   make([]rfcEntry, slots),
	}
}

func (c *RFC) Name() string { return "RFC" }

// next steps a ring index.
func (c *RFC) next(i int) int {
	if i++; i == len(c.fifo) {
		return 0
	}
	return i
}

// install inserts (warp, reg), evicting the FIFO victim if the cache is
// full; a dirty victim is written back to the main RF.
func (c *RFC) install(now int64, w *WarpRegs, r isa.Reg) {
	if w.Present.Test(int(r)) {
		return
	}
	if c.n == len(c.fifo) {
		victim := c.fifo[c.head]
		c.head = c.next(c.head)
		c.n--
		if victim.wr.Dirty.Test(int(victim.reg)) {
			c.writebackReg(now, victim.wr, victim.reg)
		}
		victim.wr.Present.Clear(int(victim.reg))
		victim.wr.Dirty.Clear(int(victim.reg))
	}
	tail := c.head + c.n
	if tail >= len(c.fifo) {
		tail -= len(c.fifo)
	}
	c.fifo[tail] = rfcEntry{w, r}
	c.n++
	w.Present.Set(int(r))
}

// cacheBankOf spreads shared-cache accesses over the cache banks.
func (c *RFC) cacheBankOf(w *WarpRegs, r isa.Reg) int {
	return (int(r) + w.ID*5) % c.cfg.CacheBanks
}

// ReadOperands serves each source from the shared register cache when
// resident; misses read the main RF with exposed latency. Read misses do
// not allocate: [19]'s RFC captures the temporal locality of freshly
// produced RESULTS ("registers house temporary values"), so registers that
// are only read — loop invariants, base pointers, coefficients — never
// enter the cache and miss every time. This is a key contributor to the
// low hit rates of Figure 4.
func (c *RFC) ReadOperands(now int64, w *WarpRegs, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			c.st.WCBAccesses++
			t = c.cache.Access(start+int64(c.cfg.WCBCycles), c.cacheBankOf(w, r))
		} else {
			t = c.readMainReg(start, w, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// WriteResult allocates a shared-cache slot for the destination
// (write-allocate) and marks it dirty; the return value is the write
// latency.
func (c *RFC) WriteResult(now int64, w *WarpRegs, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.install(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

// OnUnitEnter is a no-op: RFC has no software prefetch.
func (c *RFC) OnUnitEnter(now int64, w *WarpRegs, unitID int, ws bitvec.Vector) int64 {
	w.CurUnit = unitID
	return now
}

// OnActivate performs no refill: the cache refills on demand.
func (c *RFC) OnActivate(now int64, w *WarpRegs) int64 { return now }

// OnDeactivate flushes the warp's entries in one compacting walk of the
// FIFO: dirty registers are written back, oldest first, and the slots are
// freed for other warps.
func (c *RFC) OnDeactivate(now int64, w *WarpRegs) int64 {
	done := now
	src, out, kept := c.head, c.head, 0
	for k := 0; k < c.n; k++ {
		e := c.fifo[src]
		src = c.next(src)
		if e.wr != w {
			c.fifo[out] = e
			out = c.next(out)
			kept++
			continue
		}
		if w.Dirty.Test(int(e.reg)) {
			if t := c.writebackReg(now, w, e.reg); t > done {
				done = t
			}
		}
		w.Present.Clear(int(e.reg))
		w.Dirty.Clear(int(e.reg))
	}
	c.n = kept
	return done
}
