package sim

import (
	"ltrf/internal/core"
	"ltrf/internal/isa"
)

// instrMeta is the issue loop's per-instruction digest: every opcode-table
// query and source-slot walk the hot path makes (arity, validity filtering,
// destination presence, execution class, load/store-ness, dead-operand
// bits), the opcode, and the instruction's prefetch unit, precomputed once
// per SM. Each visit reads only this digest: the full isa.Instr is loaded
// only by memory instructions (for their access pattern) and branches (for
// their target and trip count). Purely a cache of immutable program facts
// — it cannot change behavior.
type instrMeta struct {
	srcs [3]isa.Reg // the VALID sources, compacted, in operand order
	dst  isa.Reg
	// slot indexes the warp's per-instruction counter array (memory-
	// instruction iteration counts and counted-branch trip counts — the
	// only instructions that keep per-warp dynamic state). Slots are
	// assigned densely, so each warp carries one small counter array
	// instead of two program-length ones.
	slot int32
	dead [3]bool // DeadAfter of the compacted sources
	nsrc uint8
	// writes is Op.WritesDst() && Dst.Valid() — the result write-back and
	// WAW scoreboard condition.
	writes  bool
	class   isa.Class
	isLoad  bool
	isStore bool
	op      isa.Opcode
	// unit is the instruction's prefetch unit, or -1 without a partition.
	// A warp whose WarpRegs.CurUnit differs must PREFETCH before issuing;
	// a warp without a partition keeps CurUnit at -1, so it never does.
	unit int32
}

// buildInstrMeta digests a program and its prefetch partition (nil when
// the design has none), returning the metadata table and the number of
// per-warp counter slots it assigned. O(program length); newSM calls it
// per SM, which is noise next to the warp-context setup.
func buildInstrMeta(prog *isa.Program, part *core.Partition) ([]instrMeta, int) {
	meta := make([]instrMeta, len(prog.Instrs))
	slots := 0
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		m := &meta[i]
		n := in.Op.NumSrcSlots()
		for s := 0; s < n; s++ {
			if r := in.Src[s]; r.Valid() {
				m.srcs[m.nsrc] = r
				m.dead[m.nsrc] = in.DeadAfter[s]
				m.nsrc++
			}
		}
		m.dst = in.Dst
		m.writes = in.Op.WritesDst() && in.Dst.Valid()
		m.class = in.Op.Class()
		m.isLoad = in.Op.IsLoad()
		m.isStore = in.Op.IsStore()
		m.op = in.Op
		m.unit = -1
		if part != nil {
			m.unit = int32(part.UnitID(i))
		}
		m.slot = -1
		if m.class == isa.ClassMem || (in.Op == isa.OpBraCond && in.Trip > 0) {
			m.slot = int32(slots)
			slots++
		}
	}
	return meta, slots
}
