// Batched replay path: StreamCols consumes a column-form reference run
// (workload.RefCols, the compiled replay engine's storage layout)
// without materializing workload.Ref values and without the functional
// DRAM traffic of Load/Store — replayed loads discard their values and
// replayed stores write a placeholder, and no counter anywhere in the
// machine depends on DRAM contents, so eliding the data movement is
// exact. On top of that the loop batches the bookkeeping of runs that
// provably take the fast path:
//
//   - refs that repeat the memoized page and line accumulate their
//     instruction cycles, TLB/cache hit counts and load/store counts in
//     locals, flushed to the shared counters before anything that could
//     observe them;
//   - page changes consult a replay-scale page memo (replaySlots pages,
//     against fastpath.go's eight) and then the TLB itself, so only a
//     real TLB or cache miss pays the full access path;
//   - the flush points are exactly the places per-reference execution
//     would interleave other work: an instruction-fetch boundary (every
//     IFetchPeriod instructions), a reference that needs the full access
//     path, or the end of the run.
//
// Equivalence with per-reference execution rests on the same facts the
// fast path proves (fastpath.go) plus four more, each load-bearing:
//
//   - Kernel.Advance is associative: ticks fire on cumulative cycle
//     counts, so Charge(a+b) ≡ Charge(a);Charge(b) when no OnTick hook
//     runs between them;
//   - TLB NRU touches are idempotent between TLB mutations: touch
//     returns immediately once the referenced bit is set, and any
//     mutation that could clear it (an insert, purge, or another
//     entry's touch aging the set) only happens inside an escape, which
//     ends the deferred run;
//   - a page's TLB claim (fastpath.go) holding means TLB.Lookup of the
//     page would return the claimed entry: the entry's stamp is
//     unchanged, so it has not been overwritten, evicted or purged, and
//     the shape generation is unchanged, so no overlapping insert has
//     put another entry in front of it. Replay slots therefore survive
//     TLB mutations to other pages, exactly like fast-path memo slots;
//   - TLB.Lookup on a hit is counter-equivalent to TLB.FastHit (one
//     Stats.Hit plus the touch), so which memo — the fast-path memo,
//     the replay memo, or none — holds a page never changes the
//     counter stream;
//   - Cache.FastHit/FastRepeatHit mutate nothing but hit counters, and
//     Cache.Access on the hits FastHit accepts does exactly the same
//     (replacement is round-robin, not recency-based, and write
//     upgrades are refused into the full path).
//
// Configurations that break the batching assumptions — a preemption
// quantum, a kernel tick hook, an attached sampler or timeline, a
// per-access invariant probe, or NoFastPath — fall back to exact
// per-reference delivery.
package cpu

import (
	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/check"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/workload"
)

var _ workload.ColStreamer = (*CPU)(nil)

// replaySlots sizes the replay page memo: direct-mapped by virtual page
// number, large enough to hold the paper workloads' hot page working
// sets. Purely a simulator acceleration, like the fast-path memo: every
// use is guarded by the same claim and generation checks.
const replaySlots = 512

// replayLineWords is the size of a per-page line bitmap: one bit per
// cache line of a base page.
const replayLineWords = arch.PageSize / arch.LineSize / 64

// replaySlot caches one page's verified translation chain for the
// batched replay loop.
type replaySlot struct {
	valid    bool
	lineW    bool       // remembered line was modified (silent-write ok)
	vbase    uint64     // 4 KB-aligned virtual base
	tlbClaim            // installed TLB entry covering vbase
	paBase   arch.PAddr // physical (possibly shadow) base of the page
	lineB    uint64     // last verified resident line, 0 when none
	shGen    uint64     // shadow generation when cached
	eGen     uint64     // CPU.rEpoch when the line bitmaps were started
	// lines marks page lines verified resident; written marks those
	// verified modified (stores need no upgrade). A set bit makes
	// Cache.FastHit on that line a foregone conclusion — one counted
	// hit, no state change — so the loop defers the count instead.
	// Freshness: drainEvictions clears the exact victim bits after
	// every escape, so bitmaps at the current epoch are always exact;
	// an eGen behind CPU.rEpoch means an eviction-log overflow lost
	// track and the bitmaps must restart empty.
	lines   [replayLineWords]uint64
	written [replayLineWords]uint64
}

// drainEvictions applies every cache eviction logged since the last
// drain to the replay memo: each victim line's bit is cleared in the
// slot holding its page, so slot bitmaps stay exact without any
// per-adoption synchronization. When the log overflowed (more than
// cache.EvictLogSize evictions since the last drain, or a flush), the
// epoch advances and every slot's bitmaps die wholesale. Called
// wherever evictions can have happened: after escapes and instruction
// fetches, and at batch entry.
func (c *CPU) drainEvictions() {
	g := c.Cache.EvictGen()
	if g == c.rDrained {
		return
	}
	var buf [cache.EvictLogSize]uint64
	if ne, ok := c.Cache.EvictionsSince(c.rDrained, buf[:]); ok {
		for _, ev := range buf[:ne] {
			rs := &c.rmemo[(ev>>arch.PageShift)&(replaySlots-1)]
			if rs.valid && rs.vbase == ev&^uint64(arch.PageMask) && rs.eGen == c.rEpoch {
				li := (ev & arch.PageMask) >> arch.LineShift
				rs.lines[li>>6] &^= 1 << (li & 63)
				rs.written[li>>6] &^= 1 << (li & 63)
				if ev == rs.lineB {
					rs.lineB, rs.lineW = 0, false
				}
			}
		}
	} else {
		c.rEpoch++
	}
	c.rDrained = g
}

// StreamCols issues a column-form reference run with semantics identical
// to delivering the materialized refs through Stream.
func (c *CPU) StreamCols(cols workload.RefCols) {
	if c.replayBatchable() {
		c.streamColsFast(cols)
		return
	}
	// Exact fallback: per-reference issue, full functional accesses.
	for i := 0; i < cols.Len(); i++ {
		r := cols.Ref(i)
		if r.Store {
			c.Store(r.VA, int(r.Size), r.Val)
		} else {
			c.Load(r.VA, int(r.Size))
		}
		if r.Step > 0 {
			c.Step(int(r.Step))
		}
	}
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
	if c.rmemo == nil {
		c.rmemo = make([]replaySlot, replaySlots)
	}
	period := c.cfg.IFetchPeriod
	lineMask := c.Cache.LineMask()
	si := c.sinceIFetch

	// Counters accrued since the last flush.
	var pend uint64 // instructions (one user cycle each)
	var tlbHits, cacheHits uint64
	var loads, stores uint64
	var retired uint64 // whole runs, for Work.Retired

	// Generations, reloaded after anything that could advance them.
	c.drainEvictions()
	shape, shGen, cGen := c.TLB.ShapeGen(), c.shadowGen(), c.Cache.Gen()
	epoch := c.rEpoch

	// Hoisted state of the page the run is currently inside. noPage
	// forces re-adoption (with live generation checks) after anything
	// that could invalidate it.
	const noPage = ^uint64(0)
	curVBase := noPage
	var rs *replaySlot // replay-memo slot of the current page
	var entry *tlb.Entry
	var paBase arch.PAddr
	var lineB uint64
	var lineW bool
	// needTouch: the page's TLB entry must be re-touched (a full
	// FastHit, not a deferred count) because NRU state may have changed
	// since the last touch — at every adoption and after any ifetch or
	// full-path escape, any of which can age reference bits.
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
		c.Work.Retired += retired
		tlbHits, cacheHits, loads, stores, retired = 0, 0, 0, 0, 0
	}
	// resync re-hoists state after an escape ran arbitrary machine code.
	resync := func() {
		si = c.sinceIFetch
		c.drainEvictions()
		shape, shGen, cGen = c.TLB.ShapeGen(), c.shadowGen(), c.Cache.Gen()
		epoch = c.rEpoch
		curVBase = noPage
		needTouch = true
	}
	// escape runs one reference through the full per-reference path
	// (which interleaves its own charging, ifetching and memoization)
	// after bringing every shared counter up to date.
	escape := func(va arch.VAddr, size int, isStore bool, step uint32) {
		c.Work.Escapes++
		flush()
		c.sinceIFetch = si
		c.replayOne(va, size, isStore)
		if step > 0 {
			c.Step(int(step))
		}
		resync()
	}

	n := len(cols.VPN)
	runs := cols.Runs
	ri := 0
	for i := 0; i < n; i++ {
		// Retire whole compiled runs as counter arithmetic when the page
		// memo proves every access in them hits (runHits). With the
		// run's cycles fitting before the next instruction fetch, each
		// retired reference is then exactly a deferred TLB hit plus a
		// deferred cache hit — what the per-reference path below would
		// have produced one iteration at a time — and no TLB, cache, or
		// NRU state changes.
		if ri < len(runs) && int(runs[ri].Start)-cols.Bit0 == i {
			r := &runs[ri]
			ri++
			if r.Cycles != workload.Unretirable && si+int(r.Cycles) < period &&
				c.runHits(&cols, r, shape, shGen, epoch) {
				pend += uint64(r.Cycles)
				si += int(r.Cycles)
				cnt := uint64(r.Count)
				cacheHits += cnt
				tlbHits += cnt
				loads += cnt - uint64(r.Stores)
				stores += uint64(r.Stores)
				retired++
				i += int(r.Count) - 1
				continue
			}
		}

		va := arch.VAddr(uint64(cols.VPN[i])<<arch.PageShift | uint64(cols.Off[i]))
		bit := cols.Bit0 + i
		isStore := cols.Store[bit>>6]&(1<<(bit&63)) != 0
		step := cols.Step[i]

		// An instruction-fetch boundary lands inside this reference:
		// take the full path, which fetches at the exact instruction.
		if si+1 >= period {
			escape(va, int(cols.Size[i]), isStore, step)
			continue
		}

		kind := arch.Read
		if isStore {
			kind = arch.Write
		}

		vbase := uint64(va) &^ arch.PageMask
		if vbase != curVBase {
			// Adopt the new page: replay memo, then fast-path memo,
			// then the TLB itself. Every source is guarded by the same
			// claim and generation checks; whichever holds the page, the
			// reference's counters come out identical.
			rs = &c.rmemo[(vbase>>arch.PageShift)&(replaySlots-1)]
			if rs.valid && rs.vbase == vbase && rs.holds(shape) && rs.shGen == shGen {
				entry, paBase = rs.entry, rs.paBase
				if rs.eGen != epoch {
					// The eviction log overflowed since the bitmaps were
					// started: they must restart empty.
					rs.lineB, rs.lineW = 0, false
					rs.lines = [replayLineWords]uint64{}
					rs.written = [replayLineWords]uint64{}
					rs.eGen = epoch
				}
				lineB, lineW = rs.lineB, rs.lineW
			} else if m := &c.memo[(vbase>>arch.PageShift)&(memoSlots-1)]; m.valid &&
				m.vbase == vbase && m.holds(shape) && m.shGen == shGen {
				entry, paBase = m.entry, m.paBase
				if m.cacheGen == cGen {
					lineB, lineW = m.lineBase, m.lineWritable
				} else {
					lineB, lineW = 0, false
				}
				c.Work.Fills++
				rs.valid, rs.vbase, rs.tlbClaim, rs.paBase = true, vbase, m.tlbClaim, paBase
				rs.lineB, rs.lineW = lineB, lineW
				rs.shGen, rs.eGen = shGen, epoch
				rs.lines = [replayLineWords]uint64{}
				rs.written = [replayLineWords]uint64{}
				if lineB != 0 {
					li := (lineB & arch.PageMask) >> arch.LineShift
					rs.lines[li>>6] |= 1 << (li & 63)
					if lineW {
						rs.written[li>>6] |= 1 << (li & 63)
					}
				}
			} else {
				// Medium path: the TLB may still hold the page. Lookup
				// is counter-equivalent to the touch the memoized paths
				// do; on a TLB miss the handler runs exactly where
				// per-reference execution would run it.
				e := c.TLB.Lookup(uint64(va))
				if e == nil {
					// Real TLB miss. Commit this reference's
					// instruction (charged before the handler, as
					// instr(1) orders it) and every deferred counter,
					// then run the handler and the full cache path.
					if isStore {
						stores++
					} else {
						loads++
					}
					pend++
					si++
					flush()
					c.sinceIFetch = si
					mpa, me := c.translateMissed(va, kind)
					c.accessSlow(va, kind, mpa, me, true)
					if step > 0 {
						c.Step(int(step))
					}
					resync()
					continue
				}
				pa := arch.PAddr(e.Translate(uint64(va)))
				hit, writable := c.Cache.FastHit(va, pa, kind)
				if !hit {
					// Real cache miss (or a write needing an upgrade):
					// full cache path, translation already counted.
					if isStore {
						stores++
					} else {
						loads++
					}
					pend++
					si++
					flush()
					c.sinceIFetch = si
					c.accessSlow(va, kind, pa, e, true)
					if step > 0 {
						c.Step(int(step))
					}
					resync()
					continue
				}
				// TLB hit + cache hit: adopt. Lookup already touched
				// and counted the TLB hit for this reference, FastHit
				// counted the cache hit; only the instruction and the
				// load/store count remain.
				entry = e
				curVBase = vbase
				paBase = pa &^ arch.PAddr(arch.PageMask)
				lineB, lineW = uint64(va)&^lineMask, writable
				c.Work.Fills++
				rs.valid, rs.vbase, rs.tlbClaim, rs.paBase = true, vbase, c.claim(e), paBase
				rs.lineB, rs.lineW = lineB, lineW
				rs.shGen, rs.eGen = shGen, epoch
				rs.lines = [replayLineWords]uint64{}
				rs.written = [replayLineWords]uint64{}
				if lineB != 0 {
					li := (lineB & arch.PageMask) >> arch.LineShift
					rs.lines[li>>6] |= 1 << (li & 63)
					if lineW {
						rs.written[li>>6] |= 1 << (li & 63)
					}
				}
				needTouch = false
				pend++
				si++
				if isStore {
					stores++
				} else {
					loads++
				}
				goto folded
			}
			curVBase = vbase
			needTouch = true
		}

		{
			lb := uint64(va) &^ lineMask
			if lb == lineB && (!isStore || lineW) {
				// Repeat of a verified line in a state this access
				// cannot change: pure counter work.
				cacheHits++
			} else if li := (uint64(va) & arch.PageMask) >> arch.LineShift; rs.lines[li>>6]>>(li&63)&1 != 0 &&
				(!isStore || rs.written[li>>6]>>(li&63)&1 != 0) {
				// Line already verified at this cache generation, in a
				// state this access cannot change: FastHit would count
				// one hit and return — defer the count instead.
				cacheHits++
				lineB, lineW = lb, rs.written[li>>6]>>(li&63)&1 != 0
			} else {
				off := arch.PAddr(uint64(va) & arch.PageMask)
				hit, writable := c.Cache.FastHit(va, paBase|off, kind)
				if !hit {
					// Real cache miss (or a write needing an upgrade).
					// The page's translation is already verified, so
					// count the TLB hit exactly as the per-ref path
					// would and run only the cache's full path.
					if needTouch {
						c.TLB.FastHit(entry)
					} else {
						tlbHits++
					}
					if isStore {
						stores++
					} else {
						loads++
					}
					pend++
					si++
					flush()
					c.sinceIFetch = si
					c.accessSlow(va, kind, paBase|off, entry, true)
					if step > 0 {
						c.Step(int(step))
					}
					resync()
					continue
				}
				// FastHit counted the cache hit itself.
				lineB, lineW = lb, writable
				rs.lineB, rs.lineW = lb, writable
				rs.lines[li>>6] |= 1 << (li & 63)
				if writable {
					rs.written[li>>6] |= 1 << (li & 63)
				}
			}
			pend++
			si++
			if needTouch {
				c.TLB.FastHit(entry)
				needTouch = false
			} else {
				tlbHits++
			}
			if isStore {
				stores++
			} else {
				loads++
			}
		}

	folded:
		if step > 0 {
			pend += uint64(step)
			si += int(step)
			if si >= period {
				// instr(n) charges the whole batch, then fetches.
				flush()
				for si >= period {
					si -= period
					c.ifetch()
				}
				c.drainEvictions()
				shape, shGen, cGen = c.TLB.ShapeGen(), c.shadowGen(), c.Cache.Gen()
				epoch = c.rEpoch
				curVBase = noPage
				needTouch = true
			}
		}
	}
	flush()
	c.sinceIFetch = si
}

// runHits reports whether the replay memo proves that every access of
// run r hits. For each page of the run's footprint, the replay slot
// holds the page under a TLB claim that still holds and at the current
// shadow generation and eviction epoch, and the page's TLB entry
// already has its NRU bit set, so every touch the run would do provably
// early-returns before any state change. Every footprint line is in the
// slot's verified-resident bitmap and, when the run stores to it, in
// the verified-modified one too. The footprint is exact — each line the
// run touches, once — so the check costs one probe per touched line.
func (c *CPU) runHits(cols *workload.RefCols, r *workload.RefRun, shape, shGen, epoch uint64) bool {
	var slots [workload.RunPages]*replaySlot
	for k, vpn := range cols.RunVPN[r.Page : r.Page+uint32(r.NPages)] {
		s := &c.rmemo[uint64(vpn)&(replaySlots-1)]
		if !s.valid || s.vbase != uint64(vpn)<<arch.PageShift || !s.holds(shape) ||
			s.shGen != shGen || s.eGen != epoch || !s.entry.Referenced() {
			return false
		}
		slots[k] = s
	}
	for _, l := range cols.RunLines[r.Line : r.Line+uint32(r.NLines)] {
		s, li := slots[l.Page()], l.Index()
		w, b := li>>6, li&63
		if s.lines[w]>>b&1 == 0 || l.Written() && s.written[w]>>b&1 == 0 {
			return false
		}
	}
	return true
}
