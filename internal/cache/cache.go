// Package cache models the data cache of the simulated machine: by
// default a 512 KB direct-mapped, virtually indexed / physically tagged,
// write-back, write-allocate cache with 32-byte lines, as used with the
// HP PA8000 (paper §3.2).
//
// The cache is a timing model: simulated data always lives in DRAM
// (internal/mem) and is functionally up to date; what the cache tracks is
// which lines would be resident and dirty, and which bus transactions
// (shared fills, exclusive fills, upgrades, write-backs) each access
// generates. This split keeps workloads simple while making the events
// seen by the memory controller — the only thing the MTLB reacts to —
// exactly the events a real write-back cache would produce.
package cache

import (
	"fmt"
	"math/bits"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/stats"
)

// lineState is the coherence-ish state of a resident line.
type lineState uint8

const (
	invalid  lineState = iota
	shared             // clean: filled by a read
	modified           // dirty: filled exclusively or written since fill
)

// line is one resident line, 16 bytes on a 64-bit host. It keeps no
// virtual address: the index comes from the access's address, and
// FlushPage from its argument.
type line struct {
	state lineState
	pbase uint64 // physical address of first byte (tag + write-back target)
}

// EventKind enumerates the bus/MMC transactions an access can generate.
type EventKind int

const (
	// FillShared is a cache fill for a read miss.
	FillShared EventKind = iota
	// FillExclusive is a cache fill for a write miss (paper §2.5: the
	// MTLB sets the base page's dirty bit on these).
	FillExclusive
	// Upgrade is a write hit on a shared line: ownership is requested
	// without a data transfer. The MTLB also marks dirty on these.
	Upgrade
	// WriteBack is a dirty line leaving the cache (eviction or flush).
	WriteBack
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case FillShared:
		return "fill-shared"
	case FillExclusive:
		return "fill-exclusive"
	case Upgrade:
		return "upgrade"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one bus transaction produced by the cache.
type Event struct {
	Kind EventKind
	// PAddr is the physical line address the transaction targets. For
	// shadow-mapped pages this is a shadow address — exactly what the
	// paper relies on: shadow addresses "appear as physical tags on
	// cache lines, and ... on the memory bus when cache misses occur".
	PAddr arch.PAddr
}

// Result reports what an access did. Events holds at most two entries
// (write-back of the victim, then the fill for the new line); only
// Events[:NEvents] are meaningful. A fixed-size array keeps the access
// hot path free of heap allocations.
type Result struct {
	Hit     bool
	NEvents int
	Events  [2]Event
}

// Config sizes the cache.
type Config struct {
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line
	Ways     int    // associativity; 1 = direct mapped
	// PhysIndexed selects physical indexing (PIPT) instead of the
	// default virtual indexing (VIPT). Physical indexing makes cache
	// conflicts depend on frame placement — the prerequisite for the
	// paper's §6 no-copy page recoloring extension, where shadow
	// addresses are chosen to spread hot pages across cache colors.
	PhysIndexed bool
}

// DefaultConfig returns the paper's 512 KB direct-mapped configuration.
func DefaultConfig() Config {
	return Config{Size: 512 * arch.KB, LineSize: arch.LineSize, Ways: 1}
}

// Cache is the data-cache timing model.
type Cache struct {
	cfg       Config
	lines     []line // all ways of all sets, contiguous; set i is lines[i*ways:(i+1)*ways]
	ways      uint64
	numSets   uint64
	lineMask  uint64
	lineShift uint   // log2(LineSize); line sizes are powers of two
	setMask   uint64 // numSets-1 when numSets is a power of two, else 0

	// gen counts line mutations: fills, evictions, upgrades and flushes
	// all advance it, silent hits do not. The CPU's page memo
	// compares generations to know a remembered resident line is still
	// resident in the same state without rescanning the set.
	gen uint64

	Stats      stats.HitMiss
	WriteBacks uint64
	Upgrades   uint64
}

// New builds a cache; it panics on degenerate geometry.
func New(cfg Config) *Cache {
	if cfg.LineSize == 0 || cfg.Size == 0 || cfg.Ways <= 0 ||
		cfg.LineSize&(cfg.LineSize-1) != 0 ||
		cfg.Size%(cfg.LineSize*uint64(cfg.Ways)) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	numSets := cfg.Size / cfg.LineSize / uint64(cfg.Ways)
	// One flat, pointer-free backing array for every line: construction
	// is a single allocation and the GC never scans the cache.
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, numSets*uint64(cfg.Ways)),
		ways:    uint64(cfg.Ways),
		numSets: numSets, lineMask: cfg.LineSize - 1,
	}
	c.lineShift = uint(bits.TrailingZeros64(cfg.LineSize))
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	return c
}

// set returns the ways of set idx as a slice into the flat line array.
func (c *Cache) set(idx uint64) []line {
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Gen returns the line-mutation generation (see the gen field).
func (c *Cache) Gen() uint64 { return c.gen }

// LineMask returns LineSize-1, for callers that hoist line-base
// computation out of their inner loops.
func (c *Cache) LineMask() uint64 { return c.lineMask }

// index computes the set index: from the virtual address for the
// default VIPT organization, from the physical for PIPT. The division
// and modulo are replaced with a precomputed shift and (for the usual
// power-of-two set counts) mask; non-power-of-two set counts fall back
// to the modulo.
func (c *Cache) index(va, pa uint64) uint64 {
	a := va
	if c.cfg.PhysIndexed {
		a = pa
	}
	ln := a >> c.lineShift
	if c.setMask != 0 {
		return ln & c.setMask
	}
	return ln % c.numSets
}

// Colors returns the number of page colors: the sets one way spans,
// divided into pages. Recoloring places hot pages in distinct colors.
func (c *Cache) Colors() uint64 {
	perWay := c.cfg.Size / uint64(c.cfg.Ways)
	if perWay <= arch.PageSize {
		return 1
	}
	return perWay / arch.PageSize
}

// ColorOf returns the cache color of the page holding physical address
// pa (meaningful for PIPT caches).
func (c *Cache) ColorOf(pa arch.PAddr) uint64 {
	return pa.FrameNum() % c.Colors()
}

// Access simulates one load or store. va is the virtual address, pa the
// (possibly shadow) physical address already produced by the CPU TLB.
// kind must be Read or Write; instruction fetches never reach the data
// cache (the instruction cache is perfect).
func (c *Cache) Access(va arch.VAddr, pa arch.PAddr, kind arch.AccessKind) Result {
	pline := uint64(pa) &^ c.lineMask
	idx := c.index(uint64(va), uint64(pa))
	set := c.set(idx)

	for i := range set {
		l := &set[i]
		if l.state != invalid && l.pbase == pline {
			c.Stats.Hit()
			if kind == arch.Write && l.state == shared {
				l.state = modified
				c.gen++
				c.Upgrades++
				res := Result{Hit: true, NEvents: 1}
				res.Events[0] = Event{Kind: Upgrade, PAddr: arch.PAddr(pline)}
				return res
			}
			return Result{Hit: true}
		}
	}

	c.Stats.Miss()
	c.gen++
	var res Result

	// Choose a victim: an invalid way if any, else way 0 rotated by a
	// simple round-robin on the set index (direct-mapped caches have a
	// single way, so this only matters for associative ablations).
	victim := -1
	for i := range set {
		if set[i].state == invalid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = int(idx) % len(set)
	}
	v := &set[victim]
	if v.state == modified {
		c.WriteBacks++
		res.Events[res.NEvents] = Event{Kind: WriteBack, PAddr: arch.PAddr(v.pbase)}
		res.NEvents++
	}

	fill := FillShared
	st := shared
	if kind == arch.Write {
		fill = FillExclusive
		st = modified
	}
	res.Events[res.NEvents] = Event{Kind: fill, PAddr: arch.PAddr(pline)}
	res.NEvents++
	*v = line{state: st, pbase: pline}
	return res
}

// FastHit attempts the pure-hit fast path: if the line holding pa is
// resident and the access would neither change line state nor emit a
// bus event, it charges the hit (exactly what Access would have done)
// and returns hit=true, plus whether the line accepts silent writes
// (modified state) so the caller can memoize line-grain repeats. Any
// other case — miss, or a write to a shared line that needs an Upgrade
// transaction — returns hit=false with zero side effects, and the
// caller must take the full Access path.
func (c *Cache) FastHit(va arch.VAddr, pa arch.PAddr, kind arch.AccessKind) (hit, writable bool) {
	pline := uint64(pa) &^ c.lineMask
	set := c.set(c.index(uint64(va), uint64(pa)))
	for i := range set {
		l := &set[i]
		if l.state != invalid && l.pbase == pline {
			if kind == arch.Write && l.state == shared {
				return false, false
			}
			c.Stats.Hit()
			return true, l.state == modified
		}
	}
	return false, false
}

// FastRepeatHit charges a hit with no other work: the caller has proven
// via Gen() that the line it remembers is still resident in a state
// this access cannot change.
func (c *Cache) FastRepeatHit() { c.Stats.Hit() }

// Present reports whether the line holding pa is resident (any state).
func (c *Cache) Present(va arch.VAddr, pa arch.PAddr) bool {
	pline := uint64(pa) &^ c.lineMask
	set := c.set(c.index(uint64(va), uint64(pa)))
	for i := range set {
		if set[i].state != invalid && set[i].pbase == pline {
			return true
		}
	}
	return false
}

// FlushPage flushes and invalidates every line of the 4 KB page mapped
// at virtual vbase whose lines are tagged with the physical page pbase
// (the address the cache tags carry: a real frame for conventional
// mappings, a shadow address for shadow-backed ones). It returns the
// write-back events for dirty lines and the number of lines inspected
// (the OS charges flush cost per line). Only the sets the page can map
// to are visited.
func (c *Cache) FlushPage(vbase arch.VAddr, pbase arch.PAddr) (events []Event, inspected int) {
	if uint64(vbase)&arch.PageMask != 0 || uint64(pbase)&arch.PageMask != 0 {
		panic(fmt.Sprintf("cache: FlushPage of unaligned %v/%v", vbase, pbase))
	}
	c.gen++
	linesPerPage := arch.PageSize / c.cfg.LineSize
	for i := uint64(0); i < linesPerPage; i++ {
		va := uint64(vbase) + i*c.cfg.LineSize
		pline := uint64(pbase) + i*c.cfg.LineSize
		set := c.set(c.index(va, pline))
		for w := range set {
			l := &set[w]
			if l.state != invalid && l.pbase == pline {
				if l.state == modified {
					c.WriteBacks++
					events = append(events, Event{Kind: WriteBack, PAddr: arch.PAddr(l.pbase)})
				}
				l.state = invalid
			}
		}
		inspected++
	}
	return events, inspected
}

// FlushAll writes back every dirty line and invalidates the cache,
// returning the write-back events.
func (c *Cache) FlushAll() []Event {
	c.gen++
	var events []Event
	for i := range c.lines {
		l := &c.lines[i]
		if l.state == modified {
			c.WriteBacks++
			events = append(events, Event{Kind: WriteBack, PAddr: arch.PAddr(l.pbase)})
		}
		l.state = invalid
	}
	return events
}

// ResidentLines returns the number of valid lines (tests/diagnostics).
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != invalid {
			n++
		}
	}
	return n
}

// DirtyLines returns the number of modified lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state == modified {
			n++
		}
	}
	return n
}
