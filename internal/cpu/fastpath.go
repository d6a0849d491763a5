// Page memo: one per-CPU, direct-mapped memo of recently translated
// pages that serves both engines — the per-reference path (access and
// fastAccess) and the batched replay loop (replay.go) with its escapes.
// It is the data-side analogue of the MicroITLB, but purely a simulator
// acceleration: it models no hardware. A reference that stays within a
// memoized 4 KB page and hits the data cache charges the exact cycles
// and bumps the exact counters the full path would, without re-running
// the TLB lookup, the cache victim logic, the bus/MMC model, the
// functional shadow-table walk or the DRAM frame lookup: each slot
// keeps its real page's DRAM storage, and Load/Store read and write it
// directly. When the memo holds the page but the cache refuses the
// line, the reference counts its TLB hit as TLB.FastHit and runs only
// the cache's full path, reusing the slot's real page while the shadow
// generation holds.
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
//     evictions of other pages leave the claim, and the slot, alive;
//   - the shadow-table generation: every Set that changes which real
//     frame backs a shadow page advances it, covering swap-out/in and
//     recoloring. A frame's storage never moves once materialized, so
//     the stored page is as current as the real base it was read for;
//   - the cache itself, by one line rule: each slot remembers the last
//     line verified resident in its page and whether it was modified,
//     valid while the cache's mutation generation (Cache.Gen) is
//     unchanged — while no line anywhere has been filled, evicted,
//     upgraded or flushed, a reference repeating the remembered line
//     skips even the tag scan (writes only to modified lines, which a
//     write cannot change). Any other line asks Cache.FastHit, which
//     consults the live tags and refuses, with zero side effects, any
//     access that would miss or change line state.
package cpu

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/tlb"
)

// memoSlots is the number of direct-mapped memo slots, indexed by the
// low bits of the virtual page number: 512 pages (2 MB), eight times
// the reach of a 64-entry TLB of base pages, in 32 KB of slots.
// DESIGN.md §10 records the other sizes measured against it.
const memoSlots = 512

// noLine is memoSlot.line when the slot remembers no line.
const noLine = ^uint16(0)

// tlbClaim is a slot's hold on the TLB entry Lookup returns for a
// page: the entry, its install stamp, and the TLB's shape generation
// when the slot was filled. A nil entry marks an empty slot.
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

// memoSlot caches one page's translation chain: virtual page → TLB
// entry → (possibly shadow) physical page → real DRAM page and its
// storage, plus the slot's remembered line. Page numbers are kept in
// 32 bits so a slot fills one 64-byte host cache line; fill refuses a
// page whose numbers do not fit, and such a page is never memoized.
type memoSlot struct {
	tlbClaim                       // the installed TLB entry covering the page
	shGen     uint64               // shadow generation when filled
	cacheGen  uint64               // Cache.Gen() when line was verified
	page      *[arch.PageSize]byte // the real page's DRAM storage
	vpn       uint32               // virtual page number
	paFrame   uint32               // physical (possibly shadow) page number
	realFrame uint32               // real DRAM page number
	line      uint16               // offset of the remembered line in the page, or noLine
	lineW     bool                 // remembered line was modified (silent-write ok)
}

// serves reports whether the slot holds virtual page vpn under a claim
// that still holds and at the current shadow generation.
func (m *memoSlot) serves(vpn uint64, shape, shGen uint64) bool {
	return uint64(m.vpn) == vpn && m.entry != nil && m.holds(shape) && m.shGen == shGen
}

// paBase returns the physical (possibly shadow) base of the slot's page.
func (m *memoSlot) paBase() arch.PAddr { return arch.PAddr(m.paFrame) << arch.PageShift }

// realBase returns the real DRAM base of the slot's page.
func (m *memoSlot) realBase() arch.PAddr { return arch.PAddr(m.realFrame) << arch.PageShift }

// slot returns the memo slot virtual page vpn maps to.
func (c *CPU) slot(vpn uint64) *memoSlot { return &c.memo[vpn&(memoSlots-1)] }

// FlushMemo discards every memoized translation. The claim and
// generation checks make this unnecessary for correctness — every
// invalidation source already changes a stamp or a generation the memo
// verifies on use — but explicit flushes at context switches and OS
// shootdowns keep the engine honest even if a future mutation path
// forgets to.
func (c *CPU) FlushMemo() {
	clear(c.memo[:])
}

// shadowGen returns the shadow table's translation generation, or zero
// on conventional systems with no shadow memory. Every translation
// backend reports the table's generation as its own (core.Translator),
// so the memo reads the table directly: no interface call per
// reference.
func (c *CPU) shadowGen() uint64 {
	if c.stab != nil {
		return c.stab.Gen()
	}
	return 0
}

// fill records in m the translation chain of the page holding va,
// whose storage is page: Lookup returns e for it, e maps it to pa and
// the shadow table to real. The caller sets the slot's line. fill
// counts one memo fill, and reports false, leaving m as it was, when a
// page number does not fit a slot.
func (c *CPU) fill(m *memoSlot, va arch.VAddr, e *tlb.Entry, pa, real arch.PAddr, page *[arch.PageSize]byte) bool {
	vpn, pf, rf := uint64(va)>>arch.PageShift, uint64(pa)>>arch.PageShift, uint64(real)>>arch.PageShift
	if vpn|pf|rf > 1<<32-1 {
		return false
	}
	c.Work.Fills++
	// Field by field rather than a composite literal: the literal is
	// built on the stack and block-copied, which showed in profiles.
	m.tlbClaim, m.shGen, m.page = c.claim(e), c.shadowGen(), page
	m.vpn, m.paFrame, m.realFrame = uint32(vpn), uint32(pf), uint32(rf)
	return true
}

// realPage resolves pa through the shadow table to its real address and
// returns it with the storage of its real page.
func (c *CPU) realPage(pa arch.PAddr) (arch.PAddr, *[arch.PageSize]byte) {
	real, err := c.VM.TranslateData(pa)
	if err != nil {
		panic(fmt.Sprintf("cpu: functional translate of %v: %v", pa, err))
	}
	return real, c.VM.Dram.Page(real)
}

// lineOff returns the offset in its page of the cache line holding va.
func (c *CPU) lineOff(va arch.VAddr) uint16 {
	return uint16(uint64(va) & arch.PageMask &^ c.Cache.LineMask())
}

// memoize records what the slow path just resolved for va. When m, the
// page's slot, already held the page (the cache-only path), only its
// line changes; otherwise the slot is filled. The access's own line is
// remembered only if nothing mutated the cache after the access left it
// resident (cacheGen is Cache.Gen() right after Cache.Access): a
// translation backend that parks lines in the data cache may have
// displaced it since.
func (c *CPU) memoize(m *memoSlot, va arch.VAddr, e *tlb.Entry, kind arch.AccessKind, pa, real arch.PAddr,
	page *[arch.PageSize]byte, cacheGen uint64) {
	lineOff, lineW := c.lineOff(va), kind == arch.Write
	if cacheGen != c.Cache.Gen() {
		lineOff, lineW = noLine, false
	}
	if m == nil {
		if m = c.slot(uint64(va) >> arch.PageShift); !c.fill(m, va, e, pa, real, page) {
			return
		}
	}
	m.line, m.lineW, m.cacheGen = lineOff, lineW, cacheGen
}

// MemoDiag audits the page memo for the invariant harness. Only slots
// that would still be used are checked: those whose TLB claim holds and
// whose shadow generation is current (the rest are dead by
// construction; every use refuses them). Each live slot must re-derive
// from the authoritative structures: Probe of the page returns the
// claimed entry, the entry translates the page to the slot's physical
// page, the shadow table translates that to the slot's real page, and
// the slot's storage is DRAM's storage for the real page. After
// FlushMemo every slot is empty and passes trivially. Returns a
// description per inconsistent slot.
func (c *CPU) MemoDiag() []string {
	var bad []string
	shape, shGen := c.TLB.ShapeGen(), c.shadowGen()
	for i := range c.memo {
		m := &c.memo[i]
		if m.entry == nil || !m.holds(shape) || m.shGen != shGen {
			continue
		}
		vbase := uint64(m.vpn) << arch.PageShift
		if e := c.TLB.Probe(vbase); e != m.entry {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: claimed TLB entry is not the one Probe returns", i, vbase))
			continue
		}
		if got := arch.PAddr(m.entry.Translate(vbase)); got != m.paBase() {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: paBase %v, TLB now translates to %v", i, vbase, m.paBase(), got))
			continue
		}
		real, err := c.VM.TranslateData(m.paBase())
		if err != nil || real != m.realBase() {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: realBase %v, shadow table now gives %v (err %v)", i, vbase, m.realBase(), real, err))
			continue
		}
		if m.page != c.VM.Dram.Page(real) {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: storage is not DRAM's frame at %v", i, vbase, real))
		}
	}
	return bad
}

// fastAccess completes one data reference through the memo and returns
// the storage of the real page it reaches. A reference whose page the
// memo holds and whose line the cache accepts as a silent hit charges
// exactly what the full path would have (one TLB hit with NRU touch,
// one cache hit, no cycles beyond the instruction already accounted by
// the caller) and touches nothing else. When the memo holds the page
// but the cache refuses the line, the TLB hit is counted and only the
// cache's full path runs. A page the memo does not hold goes to
// memoMiss.
func (c *CPU) fastAccess(va arch.VAddr, kind arch.AccessKind) *[arch.PageSize]byte {
	vpn := uint64(va) >> arch.PageShift
	m := c.slot(vpn)
	lineOff, cacheGen := c.lineOff(va), c.Cache.Gen()
	if !m.serves(vpn, c.TLB.ShapeGen(), c.shadowGen()) {
		page, _ := c.memoMiss(m, va, kind, lineOff, cacheGen)
		return page
	}
	off := arch.PAddr(va.PageOff())
	if m.line == lineOff && m.cacheGen == cacheGen && (kind == arch.Read || m.lineW) {
		// Repeat of the remembered line with no cache mutation since it
		// was verified: still resident, state unchangeable by this
		// access. Charge the hit without rescanning the tags.
		c.Cache.FastRepeatHit()
	} else if hit, writable := c.Cache.FastHit(va, m.paBase()|off, kind); hit {
		m.line, m.lineW, m.cacheGen = lineOff, writable, cacheGen
	} else {
		// The page hits, the line does not: the TLB hit is this one,
		// and only the cache's full path remains.
		c.TLB.FastHit(m.entry)
		return c.accessSlow(va, kind, m.paBase()|off, m.entry, m)
	}
	c.TLB.FastHit(m.entry)
	c.checkAccess(va, m.realBase()|off)
	return m.page
}

// memoMiss completes a reference to a page the memo does not hold,
// whose slot is m, for both engines. The TLB is looked up as the full
// path would; a TLB hit the cache accepts as a silent hit fills m, and
// anything else runs the full path with the lookup already counted.
// Either way the counters are the full path's. filled reports that m
// now holds the page and that the reference changed nothing but what a
// TLB hit and a silent cache hit change: hit counters and NRU bits.
func (c *CPU) memoMiss(m *memoSlot, va arch.VAddr, kind arch.AccessKind, lineOff uint16, cacheGen uint64) (page *[arch.PageSize]byte, filled bool) {
	e := c.TLB.Lookup(uint64(va))
	if e == nil {
		pa, e := c.translateMissed(va, kind)
		return c.accessSlow(va, kind, pa, e, nil), false
	}
	pa := arch.PAddr(e.Translate(uint64(va)))
	hit, writable := c.Cache.FastHit(va, pa, kind)
	if !hit {
		return c.accessSlow(va, kind, pa, e, nil), false
	}
	real, page := c.realPage(pa)
	if filled = c.fill(m, va, e, pa, real, page); filled {
		m.line, m.lineW, m.cacheGen = lineOff, writable, cacheGen
	}
	c.checkAccess(va, real)
	return page, filled
}
