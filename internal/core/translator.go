package core

import (
	"fmt"
	"sort"
	"strings"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/obs"
)

// Translator is the MMC's second-level translation engine: the component
// that maps shadow physical addresses to real DRAM addresses on every
// cache fill, upgrade and write-back. The paper's set-associative MTLB
// (scheme "mtlb") is the reference implementation; competing schemes —
// coalesced range entries, spilling victims into the data cache — plug
// in behind the same contract so they can be compared under identical
// workloads and timing (DESIGN.md §13).
//
// The contract every backend must honour:
//
//   - Translate performs the timed lookup/fill path and reports its cost
//     in the returned Translation (see the cost accounting rules there).
//     It must also maintain the table's per-base-page Ref/Dirty bits on
//     every successful translation, exactly as the reference MTLB does.
//   - Purge/PurgeAll are the OS shootdown obligations: after Purge(pa)
//     returns, no cached state may translate pa's page; after PurgeAll,
//     no cached state may translate anything. The OS calls Purge through
//     the MMC control interface whenever it changes a shadow mapping.
//   - Gen must return the shadow table's generation, Table().Gen(),
//     which advances whenever the shadow→real mapping of any page
//     changes: the in-DRAM table is the functional truth, and backend
//     caches are timing state that never changes what an address maps
//     to. The CPU's page memo validates against that generation and
//     reads it from the table directly, to keep an interface call off
//     its per-reference path.
//   - VisitCached must enumerate every (shadow page, real page) pair the
//     backend would currently translate without reading the table, with
//     no side effects on stats or replacement state. The invariant
//     harness audits each pair against the live table entry
//     (translator.coherent), so a backend whose cached state can
//     disagree with the table after a shootdown is caught immediately.
type Translator interface {
	// Scheme returns the backend's registered name.
	Scheme() string
	// Translate maps the shadow address pa, charging timing via the
	// returned Translation and maintaining Ref/Dirty bits. setDirty is
	// true for events that imply modification (exclusive fills,
	// upgrades, write-backs). An invalid entry returns *ShadowFault.
	Translate(pa arch.PAddr, setDirty bool) (Translation, error)
	// Purge drops any cached translation for pa's page, reporting
	// whether one was found.
	Purge(pa arch.PAddr) bool
	// PurgeAll drops every cached translation.
	PurgeAll()
	// Table returns the backing shadow table.
	Table() *ShadowTable
	// Space returns the shadow address space.
	Space() ShadowSpace
	// Gen returns the translation generation (see the contract above).
	Gen() uint64
	// Counters returns the backend's lookup/fill/fault counters.
	Counters() TranslatorStats
	// CachedEntries returns the number of cached translation entries
	// (range entries count once, however many pages they cover).
	CachedEntries() int
	// VisitCached enumerates the cached translations page by page.
	VisitCached(fn func(shadowBase, realBase arch.PAddr))
	// RegisterMetrics publishes the backend's counters.
	RegisterMetrics(r *obs.Registry)
}

// TranslatorStats is the counter set every backend reports. Hits are
// lookups resolved without a shadow-table DRAM read; Fills count table
// reads; Faults count accesses to invalid entries.
type TranslatorStats struct {
	Hits   uint64
	Misses uint64
	Fills  uint64
	Faults uint64
}

// HitRate returns hits/(hits+misses), 0 when there were no lookups —
// the same quotient stats.HitMiss.Rate computes, so reference-scheme
// results are bit-identical to the pre-interface MTLB's.
func (s TranslatorStats) HitRate() float64 {
	a := s.Hits + s.Misses
	if a == 0 {
		return 0
	}
	return float64(s.Hits) / float64(a)
}

// TranslatorCosts carries the MMC cycle prices a backend charges through
// Translation.FillMMC. The values come from the MMC timing model
// (internal/mmc.Timing); core keeps its own copy of the defaults so
// directly constructed backends (tests) price fills identically.
type TranslatorCosts struct {
	// TableFill is one 4-byte shadow-table entry read from DRAM
	// (mmc.Timing.MTLBFillDRAM).
	TableFill int
	// SpillProbe is one probe of the simulated data cache for a spilled
	// translation (mmc.Timing.SpillProbe).
	SpillProbe int
}

// DefaultTranslatorCosts mirrors mmc.DefaultTiming's prices.
func DefaultTranslatorCosts() TranslatorCosts {
	return TranslatorCosts{TableFill: 16, SpillProbe: 2}
}

// TranslatorDeps is what a scheme factory gets to build a backend.
type TranslatorDeps struct {
	// Table is the in-DRAM shadow-to-physical table (never nil).
	Table *ShadowTable
	// Cache is the simulated data cache; the spill scheme stores victim
	// translations in it. Nil only in table-only unit tests.
	Cache *cache.Cache
	// Costs prices the backend's DRAM and probe work.
	Costs TranslatorCosts
}

// SchemeFactory builds one translation backend. cfg is pre-normalized.
type SchemeFactory func(cfg MTLBConfig, deps TranslatorDeps) Translator

// DefaultScheme is the paper's set-associative MTLB.
const DefaultScheme = "mtlb"

var schemeRegistry = struct {
	order     []string
	factories map[string]SchemeFactory
}{factories: make(map[string]SchemeFactory)}

// RegisterScheme adds a translation scheme to the registry. Double
// registration is a programming error and panics.
func RegisterScheme(name string, f SchemeFactory) {
	if _, dup := schemeRegistry.factories[name]; dup {
		panic(fmt.Sprintf("core: scheme %q registered twice", name))
	}
	schemeRegistry.factories[name] = f
	schemeRegistry.order = append(schemeRegistry.order, name)
}

// SchemeNames returns the registered scheme names, default first and the
// rest sorted, for stable usage and error messages.
func SchemeNames() []string {
	names := make([]string, 0, len(schemeRegistry.order))
	for _, n := range schemeRegistry.order {
		if n != DefaultScheme {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{DefaultScheme}, names...)
}

// NormalizeScheme maps the empty string to the default scheme, leaving
// every other name untouched.
func NormalizeScheme(name string) string {
	if name == "" {
		return DefaultScheme
	}
	return name
}

// HasScheme reports whether name (after normalization) is registered.
func HasScheme(name string) bool {
	_, ok := schemeRegistry.factories[NormalizeScheme(name)]
	return ok
}

// NewTranslator builds the named backend, or an error naming the valid
// set for unknown schemes — the message every entry path (flags, job
// admission) surfaces verbatim.
func NewTranslator(scheme string, cfg MTLBConfig, deps TranslatorDeps) (Translator, error) {
	name := NormalizeScheme(scheme)
	f, ok := schemeRegistry.factories[name]
	if !ok {
		return nil, fmt.Errorf("unknown translation scheme %q (have %s)",
			scheme, strings.Join(SchemeNames(), ", "))
	}
	return f(cfg, deps), nil
}

// markRefDirty maintains the per-base-page referenced (and, for
// modifying events, dirty) bits, the bookkeeping every backend performs
// on every successful translation (§2.5). The paper reports the cost of
// deferred write-back of these bits as negligible; no cycles charged.
func markRefDirty(t *ShadowTable, pa arch.PAddr, setDirty bool) {
	t.MarkRefDirty(pa, setDirty)
}
