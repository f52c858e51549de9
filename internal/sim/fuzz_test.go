package sim

// Fuzz harness for sim.Config design resolution and the simulation domain:
// the Design field is a free string funneled into the regfile registry, and
// the numeric knobs come from CLI flags, experiment options and API
// requests. For any input, validation and occupancy resolution must never
// panic; a configuration that Validate accepts must resolve to an occupancy
// within the hardware bounds and must simulate a short run without error,
// with the register-file counters conserved. Seed corpus lives under
// testdata/fuzz; CI runs a short -fuzztime smoke.

import (
	"math"
	"testing"

	"ltrf/internal/isa"
	"ltrf/internal/memtech"
	"ltrf/internal/regfile"
)

// fuzzKernel is a small fixed kernel with shared-memory usage, so
// capacity hooks (regdem's shared-memory fit) see a non-trivial context.
func fuzzKernel() *isa.Program {
	b := isa.NewBuilder("fuzzcfg")
	r := b.RegN(24)
	for i := range r {
		b.IMovImm(r[i], int64(i))
	}
	sh := isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 16 << 10}
	b.Loop(4, func() {
		b.StShared(r[0], r[1], sh)
		b.LdShared(r[2], r[0], sh)
		b.FFMA(r[3], r[2], r[4], r[3])
	})
	return b.MustBuild()
}

func FuzzConfigDesignResolution(f *testing.F) {
	// The last two arguments are RegsPerInterval and CTAsPerSM; 16 and 0
	// are the Table 3 defaults.
	f.Add("LTRF", 1, 1.0, 0, 64, 8, 16, 0)
	f.Add("bl", 6, 6.3, 0, 64, 8, 16, 0)
	f.Add("regdem", 1, 1.0, 128, 48, 8, 16, 0)
	f.Add("comp", 7, 2.0, 0, 16, 4, 16, 0)
	f.Add("no-such-design", 1, 1.0, 0, 64, 8, 16, 0)
	f.Add("Ideal", 3, 0.0, -64, 0, -3, 16, 0)
	// Each bound of Validate, at the limit (accepted) and one past it.
	f.Add("LTRF", 7, float64(MaxLatencyX), 0, 64, 8, 16, 0)
	f.Add("LTRF", 7, math.Nextafter(MaxLatencyX, math.Inf(1)), 0, 64, 8, 16, 0)
	f.Add("LTRF", 1, 1.0, 0, 64, 64, 16, 0)
	f.Add("LTRF", 1, 1.0, 0, 64, 65, 16, 0)
	f.Add("LTRF", 1, 1.0, 0, 64, 8, isa.MaxArchRegs, 0)
	f.Add("LTRF", 1, 1.0, 0, 64, 8, isa.MaxArchRegs+1, 0)
	f.Add("SHRF", 1, 1.0, 0, 64, 8, 4, 0)
	f.Add("SHRF", 1, 1.0, 0, 64, 8, 3, 0)
	f.Add("regdem", 1, 1.0, 0, 64, 8, 16, 64)
	f.Add("regdem", 1, 1.0, 0, 64, 8, 16, 65)
	f.Fuzz(func(t *testing.T, design string, tech int, latX float64, capKB, maxWarps, activeWarps, regsPerInterval, ctas int) {
		kernel := fuzzKernel()
		c := DefaultConfig(Design(design))
		if p, err := memtech.Config(tech); err == nil {
			c.Tech = p
		}
		c.LatencyX = latX
		c.CapacityKB = capKB % (1 << 20)
		c.MaxWarps = maxWarps % 1024
		c.ActiveWarps = activeWarps % 1024
		c.RegsPerInterval = regsPerInterval % 1024
		c.CTAsPerSM = ctas % 1024
		c.MaxInstrs = 500
		c.MaxCycles = CycleCap(c.MaxInstrs)

		// Validation must classify, never panic; an invalid configuration
		// ends the contract here.
		if err := c.Validate(); err != nil {
			return
		}

		// A validated configuration must resolve occupancy without
		// panicking, within the hardware bounds, for any registered design.
		desc, err := c.Design.Descriptor()
		if err != nil {
			t.Fatalf("Validate accepted design %q but Descriptor fails: %v", design, err)
		}
		demand := kernel.RegCount()
		regCap, warps, capacityKB, err := c.ResolveOccupancy(demand, kernel)
		if err != nil {
			t.Fatalf("%s: ResolveOccupancy on a validated config: %v", desc.Name, err)
		}
		if warps < 1 || warps > c.MaxWarps {
			t.Fatalf("%s: warps %d outside [1,%d]", desc.Name, warps, c.MaxWarps)
		}
		if regCap < 8 || regCap > isa.MaxArchRegs {
			t.Fatalf("%s: regCap %d outside [8,%d]", desc.Name, regCap, isa.MaxArchRegs)
		}
		if capacityKB < 0 {
			t.Fatalf("%s: negative effective capacity %dKB", desc.Name, capacityKB)
		}
		if x := c.CapacityScale(demand, kernel); x <= 0 {
			t.Fatalf("%s: CapacityScale returned %v", desc.Name, x)
		}

		// Lookup canonicalization must agree between the sim layer and the
		// registry (the same string reaches both through flags).
		if _, err := regfile.Lookup(c.Design.Name()); err != nil {
			t.Fatalf("registry rejects the design sim validated: %v", err)
		}

		// An accepted configuration simulates: no deeper layer may reject
		// it, and the register-file counters obey the design's service law.
		res, err := Run(c, kernel)
		if err != nil {
			t.Fatalf("%s: Validate accepted %+v but Run fails: %v", desc.Name, c, err)
		}
		checkConservation(t, desc.Name, desc, res.Stats)
	})
}
