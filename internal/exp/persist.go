package exp

import (
	"encoding/json"
	"fmt"

	"ltrf/internal/sim"
)

// ResultSchemaVersion names the persisted-result schema. It is folded into
// every store entry's content address (see StoreVersion), so bumping it
// makes every old entry an unreachable miss instead of a wrongly-decoded
// hit. Bump it whenever the meaning of a stored field changes — new
// sim.Stats fields that default to their zero value do NOT require a bump
// (old entries decode with the zero, exactly what a re-run before the field
// existed would have reported), but changed semantics of an existing field
// do.
const ResultSchemaVersion = 1

// StoreVersion is the version string engines pass to store.Open: schema
// revision plus the canonical key layout. Everything else that affects
// result bytes (design, tech point, budget, knob overrides) is already in
// the key itself.
func StoreVersion() string { return fmt.Sprintf("ltrf-exp/v%d", ResultSchemaVersion) }

// storeKey renders the canonical (post-canon) point as the store's
// user-level key. Field order is fixed and every field is explicit, so the
// key — and with it the content address — is total over Point.
func (p Point) storeKey() string {
	key := fmt.Sprintf("design=%s;tech=%d;latx=%g;wl=%s;unroll=%d;budget=%d;rpi=%d;aw=%d",
		p.Design.Name(), p.Tech, p.LatencyX, p.Workload, p.Unroll, p.Budget,
		p.RegsPerInterval, p.ActiveWarps)
	// Appended only when non-default (post-canon), so every pre-axis store
	// address stays reachable without a schema bump.
	if p.Scheduler != "" {
		key += fmt.Sprintf(";sched=%s", p.Scheduler)
	}
	if p.Prefetch != "" {
		key += fmt.Sprintf(";pref=%s", p.Prefetch)
	}
	if p.CTAs != 0 {
		key += fmt.Sprintf(";ctas=%d", p.CTAs)
	}
	return key
}

// storedResult is the persisted payload: the simulation's statistics and
// the compile-time scalars. sim.Config is deliberately NOT serialized — it
// embeds memtech.Params, whose derived latency fields are unexported and
// would silently zero through a JSON round-trip, corrupting energy
// accounting. Instead decodeResult rebuilds the Config from the Point
// through the exact code path evalUncached uses, so a rehydrated Result is
// field-for-field what a fresh simulation would have returned (float64
// values round-trip exactly through encoding/json, keeping rendered tables
// byte-identical).
type storedResult struct {
	Stats    sim.Stats
	Kernel   string
	Demand   int
	Capacity int
}

func encodeResult(res *sim.Result) ([]byte, error) {
	return json.Marshal(storedResult{
		Stats:    res.Stats,
		Kernel:   res.Kernel,
		Demand:   res.Demand,
		Capacity: res.Capacity,
	})
}

func decodeResult(p Point, data []byte) (*sim.Result, error) {
	var sr storedResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("exp: stored result for %s: %w", p.storeKey(), err)
	}
	// A checksum-valid entry can still be semantically impossible (e.g.
	// written by a buggy build at the same schema version); the cheapest
	// invariant — every completed simulation retires at least one cycle —
	// catches the obvious cases and downgrades them to a recompute.
	if sr.Stats.Cycles <= 0 {
		return nil, fmt.Errorf("exp: stored result for %s: implausible (Cycles=%d)", p.storeKey(), sr.Stats.Cycles)
	}
	c, err := p.Config()
	if err != nil {
		return nil, err
	}
	return &sim.Result{
		Stats:    sr.Stats,
		Design:   p.Design,
		Config:   c,
		Kernel:   sr.Kernel,
		Demand:   sr.Demand,
		Capacity: sr.Capacity,
	}, nil
}
