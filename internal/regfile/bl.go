package regfile

import (
	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
	"ltrf/internal/memtech"
)

func init() {
	Register(Descriptor{
		Name: "BL",
		New:  func(ctx BuildContext) (Subsystem, error) { return NewBL(ctx.Config), nil },
	})
	Register(Descriptor{
		Name: "Ideal",
		// Ideal keeps the studied technology's CAPACITY (via occupancy) but
		// accesses at the baseline SRAM's timing with no multiplier — "the
		// same capacity ... but also the same latency as the baseline
		// register file" (§2.2).
		Timing: func(memtech.Params, float64) (memtech.Params, float64) {
			return memtech.MustConfig(1), 1.0
		},
		New: func(ctx BuildContext) (Subsystem, error) { return NewIdeal(ctx.Config), nil },
	})
}

// BL is the conventional non-cached register file: every operand read and
// result write goes to the banked main register file through the operand
// network. It is the paper's baseline design (§5 Comparison Points).
type BL struct {
	name  string
	cfg   Config
	banks *BankSet
	net   int64
	st    Stats
}

// NewBL builds the conventional register file.
func NewBL(cfg Config) *BL {
	return &BL{
		name:  "BL",
		cfg:   cfg,
		banks: NewBankSet(cfg.Banks, cfg.MainBankInitiation(), cfg.MainBankCycles()),
		net:   int64(cfg.MainNetCycles()),
	}
}

// NewIdeal builds the Ideal design: a register file with 8x capacity but
// baseline (1x) access latency — physically unrealizable, used as the upper
// bound in Figures 3 and 9. Structurally it is BL with the latency
// multiplier pinned to 1.
func NewIdeal(cfg Config) *BL {
	cfg.LatencyX = 1
	b := NewBL(cfg)
	b.name = "Ideal"
	return b
}

func (b *BL) Name() string   { return b.name }
func (b *BL) Stats() *Stats  { return &b.st }
func (b *BL) Config() Config { return b.cfg }

// ReadOperands reads every source from the main RF banks in parallel,
// returning when the slowest arrives at the operand collector.
func (b *BL) ReadOperands(now int64, w *WarpRegs, srcs []isa.Reg) int64 {
	done := now
	for _, r := range srcs {
		b.st.MainReads++
		t := b.banks.Access(now, mainBank(b.cfg.Banks, w.ID, int(r))) + b.net
		if t > done {
			done = t
		}
	}
	return done
}

// WriteResult writes the destination register to its main RF bank. Writes
// are buffered through the operand-collector write queue: they pay the bank
// write latency but do not reserve the read port (a future-timed completion
// must not delay reads other warps issue earlier; see BankSet's monotone
// assumption). The return value is the write latency.
func (b *BL) WriteResult(now int64, w *WarpRegs, dst isa.Reg) int64 {
	b.st.MainWrites++
	return b.banks.Initiation()
}

// OnUnitEnter is a no-op: BL has no prefetch units.
func (b *BL) OnUnitEnter(now int64, w *WarpRegs, unitID int, ws bitvec.Vector) int64 {
	w.CurUnit = unitID
	return now
}

// OnActivate is free: all registers live in the main RF permanently.
func (b *BL) OnActivate(now int64, w *WarpRegs) int64 { return now }

// OnDeactivate is free for the same reason.
func (b *BL) OnDeactivate(now int64, w *WarpRegs) int64 { return now }
