// Fast-path access engine: a small per-CPU memo of recently translated
// pages (the data-side analogue of the MicroITLB, but purely a simulator
// acceleration — it models no hardware). A reference that stays within a
// memoized 4 KB page and hits the data cache charges the exact cycles
// and bumps the exact counters the full path would, without re-running
// the TLB lookup, the cache victim logic, the bus/MMC model,
// or the functional shadow-table DRAM walk.
//
// Correctness rests on three live checks per use (DESIGN.md §10):
//
//   - the TLB claim (tlbClaim): the memoized TLB entry still carries the
//     install stamp it had when memoized, and the TLB's shape generation
//     has not moved. Overwrites, evictions and purges — remap()
//     shootdowns, context switches, capacity evictions — change the
//     entry's stamp; the only other way Lookup could start answering
//     the page with a different entry is an overlapping insert, which
//     moves the shape generation, as does PurgeAll. Inserts and
//     evictions of other pages leave the claim, and the memo, alive;
//   - the shadow-table generation: every Set that changes which real
//     frame backs a shadow page advances it, covering swap-out/in and
//     recoloring;
//   - the cache itself: Cache.FastHit consults the live tags and refuses
//     (with zero side effects) any access that would miss or change line
//     state, so those fall through to the full path. On top of it sits a
//     line-grain memo guarded by the cache's mutation generation: while
//     no line anywhere has been filled, evicted, upgraded or flushed, a
//     reference repeating the remembered line skips even the tag scan —
//     the line is provably still resident in the same state (writes are
//     skipped only for modified lines, which a write cannot change).
package cpu

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/tlb"
)

// memoSlots is the number of direct-mapped memo entries, indexed by the
// low bits of the virtual page number. Eight covers the hot pages of
// every paper workload's inner loop without making flushes costly.
const memoSlots = 8

// tlbClaim is a memo's hold on the TLB entry Lookup returns for a page:
// the entry, its install stamp, and the TLB's shape generation when the
// memo was made. Both CPU memos validate their TLB state with holds
// alone.
type tlbClaim struct {
	entry *tlb.Entry
	stamp uint64
	shape uint64
}

// claim records that Lookup of the page being memoized returns e.
func (c *CPU) claim(e *tlb.Entry) tlbClaim {
	return tlbClaim{entry: e, stamp: e.Stamp(), shape: c.TLB.ShapeGen()}
}

// holds reports whether Lookup of the claimed page still returns the
// claimed entry, unchanged, given the TLB's current shape generation:
// the entry has not left its slot (same stamp) and no overlap has been
// created and no PurgeAll has run since (same shape).
func (cl *tlbClaim) holds(shape uint64) bool {
	return cl.entry.Stamp() == cl.stamp && cl.shape == shape
}

// memoEntry caches one page's translation chain: virtual page → TLB
// entry → (possibly shadow) physical page → real DRAM page.
type memoEntry struct {
	valid    bool
	vbase    uint64     // 4 KB-aligned virtual base
	paBase   arch.PAddr // physical (possibly shadow) base of the page
	realBase arch.PAddr // real DRAM base after shadow translation
	tlbClaim            // the installed TLB entry covering vbase
	shGen    uint64     // ShadowTable.Gen() when memoized

	// Line-grain repeat state: the last line hit within this page, valid
	// while the cache's mutation generation is unchanged.
	lineBase     uint64 // virtual line base, 0 when no line memoized
	lineWritable bool   // line was in modified state (silent-write ok)
	cacheGen     uint64 // Cache.Gen() when the line was verified
}

// FlushMemo discards every memoized translation. The claim and
// generation checks make this unnecessary for correctness — every
// invalidation source already changes a stamp or a generation the memo
// verifies on use — but explicit flushes at context switches and OS
// shootdowns keep the engine honest even if a future mutation path
// forgets to.
func (c *CPU) FlushMemo() {
	for i := range c.memo {
		c.memo[i] = memoEntry{}
	}
}

// shadowGen returns the current translation generation of the MMC's
// backend, or zero on conventional systems with no shadow memory. The
// memo validates against the Translator interface's generation, so any
// backend's invalidation semantics (all current ones delegate to the
// shadow table) are honoured without the CPU knowing the scheme.
func (c *CPU) shadowGen() uint64 {
	if tr := c.VM.MMC.Translator(); tr != nil {
		return tr.Gen()
	}
	return 0
}

// memoize records the translation chain the slow path just resolved.
// The access's own line is memoized at line grain too: the full Access
// left it resident, modified when the access was a write.
func (c *CPU) memoize(va arch.VAddr, e *tlb.Entry, kind arch.AccessKind, pa, real arch.PAddr) {
	if c.cfg.NoFastPath || e == nil {
		return
	}
	vbase := uint64(va) &^ arch.PageMask
	pageMask := arch.PAddr(arch.PageMask)
	// Field by field rather than a composite literal: the literal is
	// built on the stack and block-copied, which showed in profiles.
	m := &c.memo[(vbase>>arch.PageShift)&(memoSlots-1)]
	m.valid, m.vbase = true, vbase
	m.paBase, m.realBase = pa&^pageMask, real&^pageMask
	m.tlbClaim, m.shGen = c.claim(e), c.shadowGen()
	m.lineBase, m.lineWritable, m.cacheGen = c.Cache.LineBase(va), kind == arch.Write, c.Cache.Gen()
}

// MemoDiag audits both page memos — the fast-path memo and the replay
// memo — for the invariant harness. Only slots that would still be used
// are checked: those whose TLB claim holds and whose shadow generation
// is current (the rest are dead by construction; every use refuses
// them). Each live slot must re-derive from the authoritative
// structures: Probe of the page returns the claimed entry, the entry
// translates the page to paBase, and, for the fast-path memo, the
// shadow translation of paBase still lands on realBase. After FlushMemo
// the fast-path slots are invalid and pass trivially. Returns a
// description per inconsistent slot.
func (c *CPU) MemoDiag() []string {
	var bad []string
	shape, shGen := c.TLB.ShapeGen(), c.shadowGen()
	claimed := func(name string, i int, vbase uint64, cl *tlbClaim, paBase arch.PAddr) bool {
		if e := c.TLB.Probe(vbase); e != cl.entry {
			bad = append(bad, fmt.Sprintf("%s[%d] va %#x: claimed TLB entry is not the one Probe returns", name, i, vbase))
			return false
		}
		if got := arch.PAddr(cl.entry.Translate(vbase)); got != paBase {
			bad = append(bad, fmt.Sprintf("%s[%d] va %#x: paBase %v, TLB now translates to %v", name, i, vbase, paBase, got))
			return false
		}
		return true
	}
	for i := range c.memo {
		m := &c.memo[i]
		if !m.valid || !m.holds(shape) || m.shGen != shGen {
			continue
		}
		if !claimed("memo", i, m.vbase, &m.tlbClaim, m.paBase) {
			continue
		}
		real, err := c.VM.TranslateData(m.paBase)
		if err != nil || real != m.realBase {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: realBase %v, shadow table now gives %v (err %v)", i, m.vbase, m.realBase, real, err))
		}
	}
	for i := range c.rmemo {
		rs := &c.rmemo[i]
		if rs.valid && rs.holds(shape) && rs.shGen == shGen {
			claimed("rmemo", i, rs.vbase, &rs.tlbClaim, rs.paBase)
		}
	}
	return bad
}

// fastAccess attempts to complete one data reference from the memo. It
// returns the real physical address and true only when the access is a
// pure TLB hit + cache hit with no state change; in that case it has
// charged exactly what the full path would have (one TLB hit with NRU
// touch, one cache hit, no cycles beyond the instruction already
// accounted by the caller). On any doubt it returns false having
// changed nothing, and the caller runs the full path.
func (c *CPU) fastAccess(va arch.VAddr, kind arch.AccessKind) (arch.PAddr, bool) {
	vbase := uint64(va) &^ arch.PageMask
	m := &c.memo[(vbase>>arch.PageShift)&(memoSlots-1)]
	if !m.valid || m.vbase != vbase ||
		!m.holds(c.TLB.ShapeGen()) || m.shGen != c.shadowGen() {
		return 0, false
	}
	off := arch.PAddr(va.PageOff())
	lineBase := c.Cache.LineBase(va)
	if m.lineBase == lineBase && m.cacheGen == c.Cache.Gen() &&
		(kind == arch.Read || m.lineWritable) {
		// Repeat of the remembered line with no cache mutation since it
		// was verified: still resident, state unchangeable by this
		// access. Charge the hit without rescanning the tags.
		c.Cache.FastRepeatHit()
		c.TLB.FastHit(m.entry)
		return m.realBase | off, true
	}
	hit, writable := c.Cache.FastHit(va, m.paBase|off, kind)
	if !hit {
		return 0, false
	}
	m.lineBase, m.lineWritable, m.cacheGen = lineBase, writable, c.Cache.Gen()
	c.TLB.FastHit(m.entry)
	return m.realBase | off, true
}
