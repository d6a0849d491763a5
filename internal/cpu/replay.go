// Batched replay path: StreamCols consumes a column-form reference run
// (workload.RefCols: the compiled replay engine's columns, read in place,
// with each span's page numbers gathered from the chunk's dictionary)
// without materializing workload.Ref values and without the functional
// DRAM traffic of Load/Store — replayed loads discard their values and
// replayed stores write a placeholder, and no counter anywhere in the
// machine depends on DRAM contents, so eliding the data movement is
// exact. On top of that the loop batches the bookkeeping of references
// that provably take the fast path:
//
//   - refs that hit the page memo (fastpath.go, the same memo the
//     per-reference path uses) and the cache accumulate their
//     instruction cycles, TLB/cache hit counts and load/store counts in
//     locals, flushed to the shared counters before anything that could
//     observe them;
//   - a page the memo does not hold is looked up in the TLB itself, so
//     only a real TLB or cache miss pays the full access path; a TLB
//     hit that also hits the cache fills the page's memo slot;
//   - the flush points are exactly the places per-reference execution
//     would interleave other work: an instruction-fetch boundary (every
//     IFetchPeriod instructions), a reference that needs the full access
//     path, or the end of the run.
//
// Equivalence with per-reference execution rests on the same facts the
// fast path proves (fastpath.go) plus five more, each load-bearing:
//
//   - Kernel.Advance is associative: ticks fire on cumulative cycle
//     counts, so Charge(a+b) ≡ Charge(a);Charge(b) when no OnTick hook
//     runs between them;
//   - so are a reference's steps. RefCols.Issue calls Step once per
//     recorded step, because Step checks for preemption first and under
//     a quantum a switch may land between Step(a) and Step(b). Without
//     a quantum Step(n) is instr(n), and instr(a);instr(b) ≡ instr(a+b):
//     the same instructions and cycles are charged and the same
//     instruction fetches run in the same order, while nothing between
//     them reads the cycle or tick count once no timeline, sampler or
//     tick hook is attached. So the loop charges a reference's code-byte
//     step and every ExtraStep of it as one;
//   - TLB NRU touches are idempotent between TLB mutations: touch
//     returns immediately once the referenced bit is set, and any
//     mutation that could clear it (an insert, purge, or another
//     entry's touch aging the set) only happens inside an escape, which
//     ends the deferred run;
//   - a page's TLB claim (fastpath.go) holding means TLB.Lookup of the
//     page would return the claimed entry: the entry's stamp is
//     unchanged, so it has not been overwritten, evicted or purged, and
//     the shape generation is unchanged, so no overlapping insert has
//     put another entry in front of it. Memo slots therefore survive
//     TLB mutations to other pages;
//   - TLB.Lookup on a hit is counter-equivalent to TLB.FastHit (one
//     Stats.Hit plus the touch), and Cache.FastHit/FastRepeatHit mutate
//     nothing but hit counters, as Cache.Access does on the hits FastHit
//     accepts (replacement is round-robin, not recency-based, and write
//     upgrades are refused into the full path). So whether the memo
//     holds a page never changes the counter stream.
//
// Configurations that break the batching assumptions — a preemption
// quantum, a kernel tick hook, an attached sampler or timeline, a
// per-access invariant probe, or NoFastPath — fall back to exact
// per-reference delivery.
package cpu

import (
	"shadowtlb/internal/arch"
	"shadowtlb/internal/check"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/workload"
)

var _ workload.ColStreamer = (*CPU)(nil)

// StreamCols issues a column-form reference run with semantics identical
// to delivering the materialized refs through Stream.
func (c *CPU) StreamCols(cols workload.RefCols) {
	if c.replayBatchable() {
		c.streamColsFast(cols)
		return
	}
	// Exact fallback: per-reference issue, full functional accesses.
	cols.Issue(c)
}

// replayBatchable reports whether batched counter accumulation is
// observationally equivalent to per-reference execution on this CPU:
// nothing may run between references that could see intermediate counter
// state or perturb the structures the batch hoists.
func (c *CPU) replayBatchable() bool {
	return !c.cfg.NoFastPath &&
		c.Quantum == 0 &&
		c.smp == nil && c.tl == nil &&
		c.K.OnTick == nil &&
		!(check.Enabled && c.OnAccessCheck != nil)
}

// replayOne runs one reference through the regular access path, minus
// the functional data movement.
func (c *CPU) replayOne(va arch.VAddr, size int, isStore bool) {
	kind := arch.Read
	if isStore {
		kind = arch.Write
		c.Stores++
	} else {
		c.Loads++
	}
	c.access(va, size, kind)
}

// streamColsFast is the batched loop. See the package comment for the
// equivalence argument.
func (c *CPU) streamColsFast(cols workload.RefCols) {
	period := c.cfg.IFetchPeriod
	lineMask := uint16(c.Cache.LineMask())
	si := c.sinceIFetch

	// Counters accrued since the last flush.
	var pend uint64 // instructions (one user cycle each)
	var tlbHits, cacheHits uint64
	var loads, stores uint64

	// Generations, reloaded after anything that could advance them.
	shape, shGen, cGen := c.TLB.ShapeGen(), c.shadowGen(), c.Cache.Gen()

	// The page the run is currently inside and its memo slot. noPage
	// forces the next reference to re-check the slot against the live
	// generations after anything that could invalidate it.
	const noPage = ^uint64(0)
	curVPN := noPage
	var m *memoSlot
	// needTouch: the page's TLB entry must be re-touched (a full
	// FastHit, not a deferred count) because NRU state may have changed
	// since the last touch — at every page change and after any ifetch
	// or full-path escape, any of which can age reference bits.
	needTouch := true

	flush := func() {
		if pend > 0 {
			c.Instructions += pend
			c.Charge(stats.Cycles(pend), User)
			pend = 0
		}
		c.TLB.Stats.Hits += tlbHits
		c.Cache.Stats.Hits += cacheHits
		c.Loads += loads
		c.Stores += stores
		tlbHits, cacheHits, loads, stores = 0, 0, 0, 0
	}
	// sync brings every shared counter, and the instruction-fetch
	// position, up to date before a per-reference path runs.
	sync := func() {
		flush()
		c.sinceIFetch = si
	}
	// resume runs the step of a reference a per-reference path has
	// finished, as Step would, and re-hoists the state that path may
	// have changed: it ran arbitrary machine code.
	resume := func(step int) {
		if step > 0 {
			c.Step(step)
		}
		si = c.sinceIFetch
		shape, shGen, cGen = c.TLB.ShapeGen(), c.shadowGen(), c.Cache.Gen()
		curVPN = noPage
		needTouch = true
	}
	// count adds one reference's instruction and load or store.
	count := func(isStore bool) {
		pend++
		si++
		if isStore {
			stores++
		} else {
			loads++
		}
	}

	extra := cols.Extra // the extra steps not yet charged
	n := len(cols.VPN)
	for i := 0; i < n; i++ {
		vpn := uint64(cols.VPN[i])
		off := cols.Off[i]
		va := arch.VAddr(vpn<<arch.PageShift | uint64(off))
		bit := cols.Bit0 + i
		isStore := cols.Store[bit>>6]&(1<<(bit&63)) != 0
		code := cols.Code[i]
		// All of the reference's steps, charged as one.
		step := int(workload.CodeStep(code))
		for len(extra) > 0 && int(extra[0].At) == bit {
			step += int(extra[0].N)
			extra = extra[1:]
		}

		// An instruction-fetch boundary lands inside this reference:
		// take the full per-reference path, which fetches at the exact
		// instruction.
		if si+1 >= period {
			c.Work.Escapes++
			sync()
			c.replayOne(va, workload.CodeSize(code), isStore)
			resume(step)
			continue
		}

		kind := arch.Read
		if isStore {
			kind = arch.Write
		}

		if vpn != curVPN {
			m = c.slot(vpn)
			if !m.serves(vpn, shape, shGen) {
				// The memo does not hold the page: commit this
				// reference's instruction, charged before any handler
				// or stall as instr(1) orders it, and every deferred
				// counter, then take the per-reference miss path.
				count(isStore)
				sync()
				if _, filled := c.memoMiss(m, va, kind, off&^lineMask, cGen); !filled {
					resume(step)
					continue
				}
				// A TLB hit filled the slot: Lookup touched the entry.
				curVPN, needTouch = vpn, false
				goto folded
			}
			curVPN = vpn
			needTouch = true
		}

		if lo := off &^ lineMask; m.line == lo && m.cacheGen == cGen && (!isStore || m.lineW) {
			// Repeat of the remembered line in a state this access
			// cannot change: pure counter work.
			cacheHits++
		} else {
			pa := m.paBase() | arch.PAddr(off)
			hit, writable := c.Cache.FastHit(va, pa, kind)
			if !hit {
				// The page hits, the line does not: count the TLB hit
				// exactly as the per-reference path would and run only
				// the cache's full path.
				if needTouch {
					c.TLB.FastHit(m.entry)
				} else {
					tlbHits++
				}
				count(isStore)
				sync()
				c.accessSlow(va, kind, pa, m.entry, m)
				resume(step)
				continue
			}
			// FastHit counted the cache hit itself.
			m.line, m.lineW, m.cacheGen = lo, writable, cGen
		}
		count(isStore)
		if needTouch {
			c.TLB.FastHit(m.entry)
			needTouch = false
		} else {
			tlbHits++
		}

	folded:
		if step > 0 {
			pend += uint64(step)
			si += step
			if si >= period {
				// instr(n) charges the whole batch, then fetches.
				flush()
				for si >= period {
					si -= period
					c.ifetch()
				}
				shape, shGen, cGen = c.TLB.ShapeGen(), c.shadowGen(), c.Cache.Gen()
				curVPN = noPage
				needTouch = true
			}
		}
	}
	flush()
	c.sinceIFetch = si
}
