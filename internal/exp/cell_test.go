package exp

import (
	"reflect"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/sim"
)

// TestCellKeyCoversConfig guards the cache's correctness: every
// sim.Config field must either change the cell key when it changes
// (otherwise two different machines would share one cached result) or be
// explicitly exempted as presentation-only. Adding a field to sim.Config
// without extending Cell.Key fails here.
func TestCellKeyCoversConfig(t *testing.T) {
	exempt := map[string]bool{
		"Label": true, // presentation only; see TestCellKeyIgnoresLabel
	}
	mutations := map[string]func(*sim.Config){
		"DRAMBytes":     func(c *sim.Config) { c.DRAMBytes *= 2 },
		"AllocOrder":    func(c *sim.Config) { c.AllocOrder = mem.Sequential },
		"MaxUserFrames": func(c *sim.Config) { c.MaxUserFrames = 1234 },
		"CPUTLBEntries": func(c *sim.Config) { c.CPUTLBEntries++ },
		"TextPages":     func(c *sim.Config) { c.TextPages++ },
		"IFetchPeriod":  func(c *sim.Config) { c.IFetchPeriod++ },
		"NoFastPath":    func(c *sim.Config) { c.NoFastPath = true },
		"MTLB":          func(c *sim.Config) { c.MTLB = &core.MTLBConfig{Entries: 64, Ways: 1} },
		"Scheme": func(c *sim.Config) {
			// Scheme only matters on MTLB-fitted systems; see also
			// TestCellKeySchemeNormalized for the "" == default identity.
			c.MTLB = &core.MTLBConfig{Entries: 128, Ways: 2}
			c.Scheme = core.SchemeCoalesced
		},
		"ShadowSpace":   func(c *sim.Config) { c.ShadowSpace.Size *= 2 },
		"Partition":     func(c *sim.Config) { c.Partition = []core.BucketSpec{{Class: arch.Page64K, Count: 3}} },
		"UseBuddy":      func(c *sim.Config) { c.UseBuddy = true },
		"NoCheckCycle":  func(c *sim.Config) { c.NoCheckCycle = true },
		"StreamBuffers": func(c *sim.Config) { c.StreamBuffers = 4 },
		"DRAMBanks":     func(c *sim.Config) { c.DRAMBanks = 8 },
		"Cache":         func(c *sim.Config) { c.Cache.Size *= 2 },
		"Bus":           func(c *sim.Config) { c.Bus.AddrCycles++ },
		"MMCTiming":     func(c *sim.Config) { c.MMCTiming.Overhead++ },
		"Costs":         func(c *sim.Config) { c.Costs.TrapEntryExit++ },
		"HPTEntries":    func(c *sim.Config) { c.HPTEntries *= 2 },
		"SMP":           func(c *sim.Config) { *c = c.WithSMP(2) },
	}

	cfgType := reflect.TypeOf(sim.Config{})
	for i := 0; i < cfgType.NumField(); i++ {
		name := cfgType.Field(i).Name
		if exempt[name] {
			continue
		}
		mut, ok := mutations[name]
		if !ok {
			t.Errorf("sim.Config field %s has no Cell.Key mutation coverage: "+
				"extend Cell.Key and this test, or exempt it", name)
			continue
		}
		base := NewCell(baseConfig(), "em3d", Small)
		changed := NewCell(baseConfig(), "em3d", Small)
		mut(&changed.Cfg)
		if base.Key() == changed.Key() {
			t.Errorf("changing Config.%s does not change the cell key %q", name, base.Key())
		}
	}
	for name := range mutations {
		if _, ok := cfgType.FieldByName(name); !ok {
			t.Errorf("mutation for unknown Config field %s", name)
		}
	}
}

// TestCellKeySchemeNormalized pins the scheme's key semantics: on an
// MTLB-fitted system the empty scheme and the default scheme name are
// the same simulation (one shared result), every other registered
// scheme splits the key, and on conventional systems the scheme is
// ignored entirely.
func TestCellKeySchemeNormalized(t *testing.T) {
	fitted := func(scheme string) Cell {
		cfg := baseConfig().WithMTLB(core.DefaultMTLBConfig())
		cfg.Scheme = scheme
		return NewCell(cfg, "em3d", Small)
	}
	if fitted("").Key() != fitted(core.DefaultScheme).Key() {
		t.Error("empty scheme and the default scheme must share one cell key")
	}
	for _, name := range core.SchemeNames() {
		if name == core.DefaultScheme {
			continue
		}
		if fitted("").Key() == fitted(name).Key() {
			t.Errorf("scheme %q does not split the cell key", name)
		}
	}
	conventional := func(scheme string) Cell {
		cfg := baseConfig()
		cfg.Scheme = scheme
		return NewCell(cfg, "em3d", Small)
	}
	if conventional("").Key() != conventional(core.SchemeCoalesced).Key() {
		t.Error("scheme must be ignored on systems without an MTLB")
	}
}

// TestCellKeyIgnoresLabel pins the one exemption: relabeling a config
// must not split the cache.
func TestCellKeyIgnoresLabel(t *testing.T) {
	a := NewCell(baseConfig(), "em3d", Small)
	b := NewCell(baseConfig(), "em3d", Small)
	b.Cfg.Label = "renamed"
	if a.Key() != b.Key() {
		t.Errorf("Label participates in the cell key:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestCellKeyDistinguishesWorkloadAndScale covers the non-Config parts
// of identity.
func TestCellKeyDistinguishesWorkloadAndScale(t *testing.T) {
	base := NewCell(baseConfig(), "em3d", Small)
	if base.Key() == NewCell(baseConfig(), "radix", Small).Key() {
		t.Error("workload name missing from the cell key")
	}
	if base.Key() == NewCell(baseConfig(), "em3d", Paper).Key() {
		t.Error("scale missing from the cell key")
	}
	// Equivalent construction orders collapse to one key.
	a := NewCell(withMTLB(baseConfig()).WithTLB(64), "radix", Small)
	b := NewCell(withMTLB(baseConfig().WithTLB(64)), "radix", Small)
	if a.Key() != b.Key() {
		t.Errorf("equivalent configs key differently:\n%s\n%s", a.Key(), b.Key())
	}
}
