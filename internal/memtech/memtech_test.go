package memtech

import (
	"math"
	"testing"
	"testing/quick"
)

// paperTable2 holds the published relative columns of Table 2.
var paperTable2 = []struct {
	name                          string
	capX, areaX, powerX           float64
	capAreaX, capPowerX, latencyX float64
}{
	{"#1", 1, 1, 1, 1, 1, 1},
	{"#2", 8, 8, 8, 1, 1, 1.25},
	{"#3", 8, 8, 8, 1, 1, 1.5},
	{"#4", 8, 8, 3.2, 1, 2.5, 1.6},
	{"#5", 8, 8, 3.2, 1, 2.5, 2.8},
	{"#6", 8, 8, 1.05, 1, 7.6, 5.3},
	{"#7", 8, 0.25, 0.65, 32, 12, 6.3},
}

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestTable2MatchesPaper(t *testing.T) {
	if len(Table2) != 7 {
		t.Fatalf("Table2 has %d configs, want 7", len(Table2))
	}
	for i, want := range paperTable2 {
		p := Table2[i]
		if p.Name != want.name {
			t.Errorf("config %d name = %s, want %s", i, p.Name, want.name)
		}
		m := p.Metrics()
		if !approx(m.CapacityX, want.capX, 0.01) {
			t.Errorf("%s CapacityX = %.3f, want %.3f", p.Name, m.CapacityX, want.capX)
		}
		if !approx(m.AreaX, want.areaX, 0.01) {
			t.Errorf("%s AreaX = %.3f, want %.3f", p.Name, m.AreaX, want.areaX)
		}
		if !approx(m.PowerX, want.powerX, 0.05) {
			t.Errorf("%s PowerX = %.3f, want %.3f", p.Name, m.PowerX, want.powerX)
		}
		if !approx(m.CapPerAreaX, want.capAreaX, 0.05) {
			t.Errorf("%s CapPerAreaX = %.3f, want %.3f", p.Name, m.CapPerAreaX, want.capAreaX)
		}
		if !approx(m.CapPerPowerX, want.capPowerX, 0.06) {
			t.Errorf("%s CapPerPowerX = %.3f, want %.3f", p.Name, m.CapPerPowerX, want.capPowerX)
		}
		if !approx(m.LatencyX, want.latencyX, 0.01) {
			t.Errorf("%s LatencyX = %.3f, want %.3f", p.Name, m.LatencyX, want.latencyX)
		}
	}
}

func TestBaselineGeometry(t *testing.T) {
	base := MustConfig(1)
	if base.CapacityKB() != 256 {
		t.Errorf("baseline capacity = %dKB, want 256KB", base.CapacityKB())
	}
	if base.Banks != 16 || base.BankKB != 16 {
		t.Errorf("baseline geometry %dx%dKB, want 16x16KB", base.Banks, base.BankKB)
	}
}

func TestConfigRange(t *testing.T) {
	if _, err := Config(0); err == nil {
		t.Error("Config(0) must fail")
	}
	if _, err := Config(8); err == nil {
		t.Error("Config(8) must fail")
	}
	for i := 1; i <= 7; i++ {
		if _, err := Config(i); err != nil {
			t.Errorf("Config(%d): %v", i, err)
		}
	}
}

func TestDWMDensity(t *testing.T) {
	dwm := MustConfig(7)
	m := dwm.Metrics()
	// 8x capacity in 0.25x area: the headline DWM win.
	if m.CapacityX != 8 {
		t.Errorf("DWM CapacityX = %v, want 8", m.CapacityX)
	}
	if !approx(m.AreaX, 0.25, 0.01) {
		t.Errorf("DWM AreaX = %v, want 0.25", m.AreaX)
	}
	// And the headline DWM cost: the longest access latency of the table.
	for i := 1; i <= 6; i++ {
		if MustConfig(i).Metrics().LatencyX >= m.LatencyX {
			t.Errorf("config #%d latency >= DWM", i)
		}
	}
}

func TestEnergyModelConsistentWithPowerColumn(t *testing.T) {
	// PowerX must equal leakShare*LeakPowerPerCycle + dynShare*DynEnergyPerAccess
	// (at reference traffic, by construction of the calibration).
	for _, p := range Table2 {
		m := p.Metrics()
		reconstructed := leakShare*p.LeakPowerPerCycle() + dynShare*p.DynEnergyPerAccess()
		if !approx(reconstructed, m.PowerX, 0.001) {
			t.Errorf("%s: energy components %.4f != PowerX %.4f", p.Name, reconstructed, m.PowerX)
		}
	}
}

func TestScaled(t *testing.T) {
	base := MustConfig(1)
	cache := base.Scaled(16, 1) // 16KB register file cache
	if cache.CapacityKB() != 16 {
		t.Errorf("scaled capacity = %d, want 16", cache.CapacityKB())
	}
	if cache.Cell != base.Cell {
		t.Error("Scaled must keep cell technology")
	}
	// A 16x smaller structure leaks 16x less.
	if !approx(cache.LeakPowerPerCycle()*16, base.LeakPowerPerCycle(), 0.001) {
		t.Errorf("leakage should scale with capacity")
	}
}

func TestSimulateQueueingLightTraffic(t *testing.T) {
	// Under near-zero traffic, the effective latency approaches raw
	// bank+network time.
	p := MustConfig(1)
	m := p.Metrics()
	got := SimulateQueueing(p, 0.05, 100000, 42)
	raw := float64(m.BankCycles + m.NetCycles)
	if math.Abs(got-raw) > 0.5 {
		t.Errorf("light-traffic latency %.2f, want ~%.1f", got, raw)
	}
}

func TestSimulateQueueingCongestion(t *testing.T) {
	// Heavier traffic must increase latency (queueing), and more banks at
	// equal traffic must reduce queueing delay.
	p16 := MustConfig(2)  // 16 banks, slow banks
	p128 := MustConfig(3) // 128 banks
	light := SimulateQueueing(p16, 0.5, 100000, 42)
	heavy := SimulateQueueing(p16, 3.5, 100000, 42)
	if heavy <= light {
		t.Errorf("congestion must raise latency: light=%.2f heavy=%.2f", light, heavy)
	}
	q16 := SimulateQueueing(p16, 3.0, 100000, 42) - float64(p16.Metrics().BankCycles+p16.Metrics().NetCycles)
	q128 := SimulateQueueing(p128, 3.0, 100000, 42) - float64(p128.Metrics().BankCycles+p128.Metrics().NetCycles)
	if q128 >= q16 {
		t.Errorf("128 banks should queue less than 16: q128=%.2f q16=%.2f", q128, q16)
	}
}

func TestEffectiveLatencyXOrdering(t *testing.T) {
	// Queueing-inclusive relative latency preserves the design-point
	// ordering of Table 2.
	prev := 0.0
	for i := 1; i <= 7; i++ {
		x := EffectiveLatencyX(MustConfig(i), 1.0)
		if x < prev-0.05 {
			t.Errorf("config #%d effective latency %.2f breaks monotonicity (prev %.2f)", i, x, prev)
		}
		prev = x
	}
}

// Property: queueing latency is never below raw service time and is
// monotone in traffic intensity.
func TestQuickQueueingBounds(t *testing.T) {
	f := func(cfgRaw, trafficRaw uint8) bool {
		cfg := Table2[int(cfgRaw)%7]
		m := cfg.Metrics()
		traffic := 0.1 + float64(trafficRaw%40)/20.0 // 0.1 .. 2.05
		lat := SimulateQueueing(cfg, traffic, 20000, uint64(cfgRaw)*7+1)
		if lat < float64(m.BankCycles+m.NetCycles)-1e-9 {
			return false
		}
		lat2 := SimulateQueueing(cfg, traffic+1.0, 20000, uint64(cfgRaw)*7+1)
		return lat2 >= lat-0.35 // allow small noise, but no large inversion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCyclesSaturates(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int
	}{
		{2.4, 2}, {2.5, 3}, {22.2 * 10_000, 222_000},
		{0, 0}, {-3, 0}, {-1e19, 0},
		{MaxCycles - 0.7, MaxCycles - 1}, {MaxCycles, MaxCycles},
		{1e18, MaxCycles}, {1e19, MaxCycles}, {math.Inf(1), MaxCycles}, {math.NaN(), MaxCycles},
	} {
		if got := Cycles(c.x); got != c.want {
			t.Errorf("Cycles(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}
