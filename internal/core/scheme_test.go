package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/mem"
)

// schemesUnderTest returns the backends the scheme tests cover: every
// registered scheme, or only the one MTLB_SCHEME names — CI's
// per-backend race matrix sets the variable to isolate each backend in
// its own leg.
func schemesUnderTest(t *testing.T) []string {
	t.Helper()
	if s := os.Getenv("MTLB_SCHEME"); s != "" {
		if !HasScheme(s) {
			t.Fatalf("MTLB_SCHEME=%q is not a registered scheme (have %s)",
				s, strings.Join(SchemeNames(), ", "))
		}
		return []string{NormalizeScheme(s)}
	}
	return SchemeNames()
}

// testDeps builds a fresh shadow table (8 MB space) plus data cache for
// one backend under test.
func testDeps(t *testing.T) TranslatorDeps {
	t.Helper()
	dram := mem.NewDRAM(16 * arch.MB)
	space := ShadowSpace{Base: 0x80000000, Size: 8 * arch.MB}
	return TranslatorDeps{
		Table: NewShadowTable(space, 0x100000, dram),
		Cache: cache.New(cache.DefaultConfig()),
		Costs: DefaultTranslatorCosts(),
	}
}

// TestSchemeRegistry pins the registry surface: the default scheme
// leads the name list, normalization maps "" onto it, and an unknown
// name produces the canonical error enumerating the valid set.
func TestSchemeRegistry(t *testing.T) {
	names := SchemeNames()
	if len(names) == 0 || names[0] != DefaultScheme {
		t.Fatalf("SchemeNames() = %v, want %q first", names, DefaultScheme)
	}
	for _, n := range names {
		if !HasScheme(n) {
			t.Errorf("HasScheme(%q) = false for a listed scheme", n)
		}
	}
	if !HasScheme("") || NormalizeScheme("") != DefaultScheme {
		t.Error(`"" must normalize to the default scheme`)
	}
	if HasScheme("no-such-scheme") {
		t.Error("HasScheme accepts an unregistered name")
	}
	_, err := NewTranslator("no-such-scheme", MTLBConfig{}, TranslatorDeps{})
	if err == nil {
		t.Fatal("NewTranslator accepted an unregistered scheme")
	}
	for _, want := range append([]string{"no-such-scheme"}, names...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSchemeContract runs the full Translator contract against every
// backend: miss-then-hit semantics with cost accounting, generation
// tracking, ref/dirty maintenance, fault signalling, purges, and
// coherence of the visited cache contents against the table.
func TestSchemeContract(t *testing.T) {
	for _, scheme := range schemesUnderTest(t) {
		t.Run(scheme, func(t *testing.T) {
			deps := testDeps(t)
			tr, err := NewTranslator(scheme, MTLBConfig{Entries: 8, Ways: 2}, deps)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Scheme() != scheme {
				t.Errorf("Scheme() = %q, want %q", tr.Scheme(), scheme)
			}
			if tr.Table() != deps.Table || tr.Space() != deps.Table.Space() {
				t.Error("Table/Space accessors do not expose the backing table")
			}

			// Non-contiguous PFNs so the coalesced backend cannot merge
			// them into one range and hide the second page's miss.
			sh := arch.PAddr(0x80240000)
			deps.Table.Set(sh, TableEntry{PFN: 0x138, Valid: true})

			// Miss: one table-line read at TableFill MMC cycles.
			res, err := tr.Translate(sh|0x80, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hit {
				t.Error("first translation should miss")
			}
			if res.FillAddr != deps.Table.EntryAddr(sh) {
				t.Errorf("FillAddr = %v, want %v", res.FillAddr, deps.Table.EntryAddr(sh))
			}
			if res.FillMMC != deps.Costs.TableFill {
				t.Errorf("miss FillMMC = %d, want %d", res.FillMMC, deps.Costs.TableFill)
			}
			if res.Real != 0x138080 {
				t.Errorf("Real = %v, want 0x138080", res.Real)
			}

			// Hit: folded into the check cycle — zero extra MMC cycles.
			res, err = tr.Translate(sh|0xFC0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Hit || res.FillAddr != 0 || res.FillMMC != 0 {
				t.Errorf("hit translation: %+v", res)
			}
			if res.Real != 0x138FC0 {
				t.Errorf("hit Real = %v, want 0x138FC0", res.Real)
			}
			c := tr.Counters()
			if c.Hits != 1 || c.Misses != 1 || c.Fills != 1 {
				t.Errorf("counters: %+v", c)
			}
			if c.HitRate() != 0.5 {
				t.Errorf("HitRate = %v, want 0.5", c.HitRate())
			}

			// Ref/dirty maintenance on every translation.
			if e := deps.Table.Get(sh); !e.Ref || e.Dirty {
				t.Errorf("after read translations: %+v, want Ref only", e)
			}
			if _, err := tr.Translate(sh, true); err != nil {
				t.Fatal(err)
			}
			if e := deps.Table.Get(sh); !e.Dirty {
				t.Error("modifying translation did not set Dirty")
			}

			// Gen is the table's translation generation.
			g := tr.Gen()
			other := arch.PAddr(0x80555000)
			deps.Table.Set(other, TableEntry{PFN: 0x77, Valid: true})
			if tr.Gen() <= g {
				t.Errorf("Gen did not advance on table change: %d -> %d", g, tr.Gen())
			}
			if tr.Gen() != tr.Table().Gen() {
				t.Errorf("Gen = %d, the table's is %d", tr.Gen(), tr.Table().Gen())
			}

			// Coherence: everything the backend caches matches the table.
			tr.VisitCached(func(shadowBase, realBase arch.PAddr) {
				e := deps.Table.Get(shadowBase)
				if !e.Valid {
					t.Errorf("cached %v but table entry is invalid", shadowBase)
				}
				if want := arch.FrameToPAddr(e.PFN); realBase != want {
					t.Errorf("cached %v -> %v, table says %v", shadowBase, realBase, want)
				}
			})

			// Purge drops the cached translation: the next lookup misses.
			if !tr.Purge(sh) {
				t.Error("Purge of a cached page reported nothing dropped")
			}
			res, err = tr.Translate(sh, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hit {
				t.Error("translation hit after Purge")
			}

			// Fault path: invalid entry raises ShadowFault and sets the
			// fault bit for the OS.
			bad := arch.PAddr(0x80333000)
			_, err = tr.Translate(bad, false)
			var sf *ShadowFault
			if !errors.As(err, &sf) || sf.Shadow != bad {
				t.Fatalf("expected ShadowFault for %v, got %v", bad, err)
			}
			if !deps.Table.Get(bad).Fault {
				t.Error("fault bit not set on the faulting entry")
			}
			if tr.Counters().Faults != 1 {
				t.Errorf("Faults = %d, want 1", tr.Counters().Faults)
			}

			// PurgeAll empties the backend.
			tr.PurgeAll()
			if n := tr.CachedEntries(); n != 0 {
				t.Errorf("CachedEntries after PurgeAll = %d", n)
			}
		})
	}
}

// TestSchemeCoalescedRuns pins the coalescing win: eight shadow pages
// on consecutive real frames, all within one 8-entry table line, cost
// one fill and serve the other seven pages as hits.
func TestSchemeCoalescedRuns(t *testing.T) {
	deps := testDeps(t)
	m := NewCoalescedMTLB(MTLBConfig{Entries: 8, Ways: 2}, deps.Table, deps.Costs)

	// Page index 0 is line-aligned by construction.
	base := deps.Table.Space().Base
	for i := 0; i < entriesPerTableLine; i++ {
		deps.Table.Set(base+arch.PAddr(i*arch.PageSize),
			TableEntry{PFN: 0x200 + uint64(i), Valid: true})
	}
	for i := 0; i < entriesPerTableLine; i++ {
		res, err := m.Translate(base+arch.PAddr(i*arch.PageSize)|0x10, false)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && res.Hit {
			t.Error("first page should miss")
		}
		if i > 0 && !res.Hit {
			t.Errorf("page %d should hit the coalesced range", i)
		}
		if want := arch.FrameToPAddr(0x200+uint64(i)) | 0x10; res.Real != want {
			t.Errorf("page %d Real = %v, want %v", i, res.Real, want)
		}
	}
	if m.Fills != 1 {
		t.Errorf("Fills = %d, want 1 for the whole run", m.Fills)
	}
	if m.AvgRunPages() != float64(entriesPerTableLine) {
		t.Errorf("AvgRunPages = %v, want %d", m.AvgRunPages(), entriesPerTableLine)
	}
}

// TestSchemeCoalescedLineBound pins the timing-honesty limit: a
// contiguous PFN run crossing an 8-entry table-line boundary must NOT
// coalesce across it, because the fill engine only saw one line.
func TestSchemeCoalescedLineBound(t *testing.T) {
	deps := testDeps(t)
	m := NewCoalescedMTLB(MTLBConfig{Entries: 8, Ways: 2}, deps.Table, deps.Costs)

	base := deps.Table.Space().Base
	last := entriesPerTableLine - 1 // last page of line 0
	for _, i := range []int{last, last + 1} {
		deps.Table.Set(base+arch.PAddr(i*arch.PageSize),
			TableEntry{PFN: 0x300 + uint64(i), Valid: true})
	}
	if _, err := m.Translate(base+arch.PAddr(last*arch.PageSize), false); err != nil {
		t.Fatal(err)
	}
	res, err := m.Translate(base+arch.PAddr((last+1)*arch.PageSize), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Error("page in the next table line must not ride the previous line's range")
	}
	if m.Fills != 2 {
		t.Errorf("Fills = %d, want 2 (one per table line)", m.Fills)
	}
}

// TestSchemeSpillParkProbeStale exercises the spill backend's three
// distinctive paths: a front victim parks its table line in the data
// cache, a later lookup resolves from there for SpillProbe cycles, and
// a directory entry whose line was displaced by data traffic is
// discovered stale and falls through to a full table read.
func TestSchemeSpillParkProbeStale(t *testing.T) {
	deps := testDeps(t)
	m := NewSpillMTLB(MTLBConfig{Entries: 2, Ways: 2}, deps.Table, deps.Cache, deps.Costs)

	pages := []arch.PAddr{0x80010000, 0x80020000, 0x80030000}
	for i, p := range pages {
		deps.Table.Set(p, TableEntry{PFN: 0x400 + uint64(i)*3, Valid: true})
	}
	// Fill the 2-entry front, then overflow it: the third fill evicts a
	// victim into the data cache.
	for _, p := range pages {
		if _, err := m.Translate(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if m.Spills != 1 || len(m.spilled) != 1 {
		t.Fatalf("Spills = %d, directory = %v, want one parked victim", m.Spills, m.spilled)
	}
	var victim arch.PAddr
	for spa := range m.spilled {
		victim = arch.PAddr(spa)
	}

	// Probe hit: resolved from the parked line for SpillProbe cycles,
	// no table read.
	fillsBefore := m.Fills
	res, err := m.Translate(victim|0x40, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.FillMMC != deps.Costs.SpillProbe || res.FillAddr != 0 {
		t.Errorf("spill hit: FillMMC = %d FillAddr = %v, want %d and 0",
			res.FillMMC, res.FillAddr, deps.Costs.SpillProbe)
	}
	if want := arch.FrameToPAddr(deps.Table.Get(victim).PFN) | 0x40; res.Real != want {
		t.Errorf("spill hit Real = %v, want %v", res.Real, want)
	}
	if m.SpillHits != 1 || m.Fills != fillsBefore {
		t.Errorf("SpillHits = %d, Fills = %d (was %d)", m.SpillHits, m.Fills, fillsBefore)
	}

	// The promotion evicted a new victim; displace its parked line by
	// thrashing the cache with data traffic, then probe: stale.
	if len(m.spilled) != 1 {
		t.Fatalf("directory after promotion = %v, want one entry", m.spilled)
	}
	for spa := range m.spilled {
		victim = arch.PAddr(spa)
	}
	for a := uint64(0); a < 4*arch.MB; a += arch.LineSize {
		deps.Cache.Access(arch.VAddr(0x4000000+a), arch.PAddr(0x4000000+a), arch.Read)
	}
	fillsBefore = m.Fills
	res, err = m.Translate(victim, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.StaleProbes != 1 {
		t.Errorf("StaleProbes = %d, want 1", m.StaleProbes)
	}
	if m.Fills != fillsBefore+1 {
		t.Errorf("stale probe must fall through to a table read: Fills = %d, want %d",
			m.Fills, fillsBefore+1)
	}
	if res.FillMMC != deps.Costs.SpillProbe+deps.Costs.TableFill {
		t.Errorf("stale-probe FillMMC = %d, want probe+fill = %d",
			res.FillMMC, deps.Costs.SpillProbe+deps.Costs.TableFill)
	}
	if want := arch.FrameToPAddr(deps.Table.Get(victim).PFN); res.Real != want {
		t.Errorf("stale-probe Real = %v, want %v", res.Real, want)
	}
}

// TestSchemeSpillNilCacheDegrades pins the nil-cache degradation: with
// no data cache the backend never parks victims and every front miss is
// a plain table read.
func TestSchemeSpillNilCacheDegrades(t *testing.T) {
	deps := testDeps(t)
	m := NewSpillMTLB(MTLBConfig{Entries: 2, Ways: 2}, deps.Table, nil, deps.Costs)
	for i := 0; i < 4; i++ {
		p := arch.PAddr(0x80010000 + i*arch.PageSize)
		deps.Table.Set(p, TableEntry{PFN: 0x500 + uint64(i), Valid: true})
		if _, err := m.Translate(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if m.Spills != 0 || len(m.spilled) != 0 {
		t.Errorf("nil-cache backend parked victims: Spills = %d", m.Spills)
	}
	if m.Fills != 4 {
		t.Errorf("Fills = %d, want 4", m.Fills)
	}
}
