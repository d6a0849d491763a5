// Package cpu models the processor of the simulated machine: a
// single-issue 240 MHz CPU with a unified, fully associative, NRU-
// replaced I/D TLB, a single-entry micro-ITLB, a perfect instruction
// cache, and the paper's 512 KB data cache behind a Runway-class bus
// (paper §3.2).
//
// The CPU is execution-driven: workloads are real Go code whose loads
// and stores are issued through this package, so every data reference
// traverses TLB -> cache -> bus -> MMC/MTLB -> DRAM with full timing,
// and the data itself lives in simulated memory.
//
// Cycle accounting follows the paper's reporting: user execution
// (instructions and cache hits), TLB miss handling (the software
// handler, including its own memory stalls), memory stalls (cache fills
// and upgrades), and other kernel time (page faults, syscalls, remap,
// timer).
package cpu

import (
	"encoding/binary"
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/check"
	"shadowtlb/internal/core"
	"shadowtlb/internal/kernel"
	"shadowtlb/internal/mmc"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
)

// Config sizes the processor.
type Config struct {
	// TLBEntries is the unified TLB size (paper: 64, 96, 128, 256).
	TLBEntries int
	// TextPages models the program's instruction footprint: ifetches
	// rotate across this many pages of the text segment.
	TextPages int
	// IFetchPeriod is the mean number of instructions between
	// cross-page instruction fetches (micro-ITLB misses). Straight-line
	// code within a page never leaves the micro-ITLB.
	IFetchPeriod int
	// NoFastPath disables the fast-path access engine (fastpath.go),
	// forcing every reference through the full TLB/cache/bus walk. The
	// zero value enables the engine; the differential tests prove the
	// two paths produce identical results.
	NoFastPath bool
}

// DefaultConfig returns a 96-entry TLB (the paper's normalization base)
// with a modest text footprint.
func DefaultConfig() Config {
	return Config{TLBEntries: 96, TextPages: 12, IFetchPeriod: 120}
}

// Category labels a cycle charge.
type Category int

// Cycle categories.
const (
	User Category = iota
	TLBMiss
	Memory
	KernelTime
)

// CPU is the processor model. It implements the workload execution
// environment: Load, Store, Step, Sbrk, Remap, AllocRegion.
type CPU struct {
	// memo is the page memo both engines share (fastpath.go). It comes
	// first so that each 64-byte memoSlot sits on one cache line: a
	// CPU is a page-aligned allocation, and a field before memo would
	// shift every slot across two lines.
	memo [memoSlots]memoSlot

	cfg   Config
	TLB   *tlb.TLB
	ITLB  *tlb.MicroITLB
	VM    *vm.VM
	Cache *cache.Cache
	MMC   *mmc.MMC
	K     *kernel.Kernel

	Breakdown    stats.Breakdown
	Instructions uint64
	Loads        uint64
	Stores       uint64

	// Quantum/OnQuantum support preemptive multiprogramming: when a
	// scheduling quantum of cycles has been charged, OnQuantum is
	// invoked (between instructions) so a scheduler can switch
	// processes. Zero Quantum disables preemption.
	Quantum   stats.Cycles
	OnQuantum func()

	// OnAccessCheck is the invariant harness's per-access differential
	// probe: it receives every completed data access's virtual address
	// and resolved real address. The call sites are compiled out unless
	// the build carries the invariants tag (internal/check), so the
	// default-build hot path is untouched.
	OnAccessCheck func(va arch.VAddr, real arch.PAddr)

	sinceIFetch int
	textPage    int
	sliceUsed   stats.Cycles

	// stab is the shadow table whose generation validates the memo
	// (nil without shadow memory).
	stab *core.ShadowTable

	// Observability instruments (see observe.go); nil means disabled.
	smp      *obs.Sampler
	tl       *obs.Timeline
	missHist *obs.Histogram

	// Work counts the simulator's own host work (work.go).
	Work Work
}

// NewOnTLBs wires a processor with an explicit TLB and micro-ITLB over
// a (possibly shared) address space. Each processor owns private
// translation hardware and a private fast-path memo, while the VM — and
// through it the cache, MMC and kernel — may be shared by every CPU of
// the machine.
func NewOnTLBs(cfg Config, v *vm.VM, t *tlb.TLB, it *tlb.MicroITLB) *CPU {
	if cfg.TLBEntries <= 0 || cfg.TextPages <= 0 || cfg.IFetchPeriod <= 0 {
		panic(fmt.Sprintf("cpu: bad config %+v", cfg))
	}
	c := &CPU{
		cfg:   cfg,
		TLB:   t,
		ITLB:  it,
		VM:    v,
		Cache: v.Cache,
		MMC:   v.MMC,
		K:     v.Kernel,
	}
	if tr := v.MMC.Translator(); tr != nil {
		c.stab = tr.Table()
	}
	return c
}

// Config returns the processor configuration.
func (c *CPU) Config() Config { return c.cfg }

// Charge adds cycles to the given category, advancing the kernel timer.
func (c *CPU) Charge(n stats.Cycles, cat Category) {
	switch cat {
	case User:
		c.Breakdown.User += n
	case TLBMiss:
		c.Breakdown.TLBMiss += n
	case Memory:
		c.Breakdown.Memory += n
	case KernelTime:
		c.Breakdown.Kernel += n
	}
	c.Breakdown.Kernel += c.K.Advance(n)
	c.sliceUsed += n
	if c.smp != nil {
		c.smp.MaybeSample(uint64(c.Breakdown.Total()))
	}
}

// maybePreempt fires the scheduler callback at an instruction boundary
// once the quantum is exhausted. It must not run inside a memory access
// or trap handler, so callers invoke it only from safe points.
func (c *CPU) maybePreempt() {
	if c.Quantum > 0 && c.OnQuantum != nil && c.sliceUsed >= c.Quantum {
		c.sliceUsed = 0
		c.OnQuantum()
	}
}

// SwitchVM performs a context switch to another process's address
// space: the unified TLB and micro-ITLB have no address-space tags, so
// both are flushed (wired kernel entries survive), and the dispatch
// cost is charged as kernel time.
func (c *CPU) SwitchVM(v *vm.VM) {
	if v.CPUTLB != c.TLB || v.Cache != c.Cache || v.MMC != c.MMC || v.Kernel != c.K {
		panic("cpu: SwitchVM across different hardware")
	}
	c.VM = v
	c.FlushMemo()
	c.TLB.PurgeAll()
	c.ITLB.Purge()
	c.Charge(stats.Cycles(c.K.Costs.ContextSwitch), KernelTime)
}

// Cycles returns total elapsed CPU cycles.
func (c *CPU) Cycles() stats.Cycles { return c.Breakdown.Total() }

// instr accounts n executed instructions (one cycle each, single issue)
// and reports whether the caller must finish the accounting with
// instrSlow: when a timer tick is due, a sampler is attached, or a
// fetch boundary is reached. Together they are Charge(n, User) written
// out, plus the instruction fetches. instr holds no call, so it inlines
// into access and Step and the common case takes one branch.
//
// Every counter stays current after each instruction, since the
// multicore executor's slot accounting, OnTick hooks and maybePreempt
// read them between instructions.
func (c *CPU) instr(n int) (slow bool) {
	c.Instructions += uint64(n)
	c.Breakdown.User += stats.Cycles(n)
	c.sliceUsed += stats.Cycles(n)
	c.sinceIFetch += n
	return c.K.Elapse(stats.Cycles(n)) || c.smp != nil || c.sinceIFetch >= c.cfg.IFetchPeriod
}

// instrSlow finishes instr's accounting: it fires any due timer tick,
// samples, and simulates the instruction-fetch side, in Charge's order.
// Every IFetchPeriod instructions control transfers to another text
// page, missing the micro-ITLB and consulting the main TLB.
func (c *CPU) instrSlow() {
	c.Breakdown.Kernel += c.K.Advance(0)
	if c.smp != nil {
		c.smp.MaybeSample(uint64(c.Breakdown.Total()))
	}
	for c.sinceIFetch >= c.cfg.IFetchPeriod {
		c.sinceIFetch -= c.cfg.IFetchPeriod
		c.ifetch()
	}
}

// noteMiss records one software TLB miss handler invocation — a span
// on the timeline's "tlbmiss" track starting at the current cycle (the
// charges land right after) and a handler-latency histogram sample.
func (c *CPU) noteMiss(res vm.MissResult) {
	c.missHist.Observe(uint64(res.HandlerCycles))
	if c.tl != nil {
		c.tl.SpanAt("tlbmiss", "handler", uint64(c.Breakdown.Total()), uint64(res.HandlerCycles))
	}
}

// ifetch simulates one cross-page instruction fetch.
func (c *CPU) ifetch() {
	c.textPage++
	if c.textPage >= c.cfg.TextPages {
		c.textPage = 0
	}
	va := vm.TextBase + arch.VAddr(c.textPage*arch.PageSize)
	if _, ok := c.ITLB.Lookup(uint64(va)); ok {
		return
	}
	e := c.TLB.Lookup(uint64(va))
	if e == nil {
		_, e = c.translateMissed(va, arch.Read)
	}
	c.ITLB.Refill(tlb.Entry{Class: e.Class, Tag: e.Tag, Target: e.Target})
}

// translate produces the (possibly shadow) physical address for va,
// running the software miss handler when the TLB misses. It also
// returns the installed TLB entry so the access path can memoize it.
func (c *CPU) translate(va arch.VAddr, kind arch.AccessKind) (arch.PAddr, *tlb.Entry) {
	if e := c.TLB.Lookup(uint64(va)); e != nil {
		return arch.PAddr(e.Translate(uint64(va))), e
	}
	return c.translateMissed(va, kind)
}

// translateMissed runs the software miss handler for va, whose TLB
// lookup — already performed and counted by the caller — came up empty.
func (c *CPU) translateMissed(va arch.VAddr, kind arch.AccessKind) (arch.PAddr, *tlb.Entry) {
	res, err := c.VM.HandleTLBMiss(va, kind)
	if err != nil {
		panic(fmt.Sprintf("cpu: TLB miss at %v: %v", va, err))
	}
	c.noteMiss(res)
	c.Charge(res.HandlerCycles, TLBMiss)
	c.Charge(res.FaultCycles+res.PromoteCycles, KernelTime)
	c.TLB.Insert(res.Entry)
	return arch.PAddr(res.Entry.Translate(uint64(va))), c.TLB.Probe(uint64(va))
}

// access runs the full timed path for one data reference and returns
// the storage of the real page it reaches, for the functional access.
func (c *CPU) access(va arch.VAddr, size int, kind arch.AccessKind) *[arch.PageSize]byte {
	if size <= 0 || size > 8 {
		panic(fmt.Sprintf("cpu: access size %d", size))
	}
	if va.PageOff()+uint64(size) > arch.PageSize {
		panic(fmt.Sprintf("cpu: access at %v size %d crosses a page boundary", va, size))
	}
	c.maybePreempt()
	if c.instr(1) {
		c.instrSlow()
	}

	if c.cfg.NoFastPath {
		return c.accessSlow(va, kind, 0, nil, nil)
	}
	// The memo is consulted after instrSlow, whose ifetch can insert TLB
	// entries and run kernel code; the claim and generation checks
	// inside fastAccess observe any such mutation.
	return c.fastAccess(va, kind)
}

// checkAccess hands a completed access to the invariant harness's
// per-access probe. It compiles to nothing without the invariants tag.
func (c *CPU) checkAccess(va arch.VAddr, real arch.PAddr) {
	if check.Enabled && c.OnAccessCheck != nil {
		c.OnAccessCheck(va, real)
	}
}

// accessSlow is the full timed path: the whole walk under NoFastPath,
// and the rest of it for references the memo cannot finish. When e is
// non-nil, the caller has already translated va to pa (with the lookup
// or miss handling counted) and the first attempt reuses them; when m
// is non-nil too, the translation came from m, the page's memo slot,
// whose real page is reused while the shadow generation holds.
// Shadow-fault retries always re-translate, as a retried instruction
// would. It returns the storage of the real page.
func (c *CPU) accessSlow(va arch.VAddr, kind arch.AccessKind, pa arch.PAddr, e *tlb.Entry, m *memoSlot) *[arch.PageSize]byte {
	c.Work.Slow++
	for attempt := 0; ; attempt++ {
		if e == nil || attempt > 0 {
			pa, e = c.translate(va, kind)
			m = nil
		}
		res := c.Cache.Access(va, pa, kind)
		cacheGen := c.Cache.Gen()
		faulted := false
		for _, ev := range res.Events[:res.NEvents] {
			r, err := c.MMC.HandleEvent(ev)
			if err != nil {
				sf, ok := err.(*core.ShadowFault)
				if !ok {
					panic(fmt.Sprintf("cpu: access at %v: %v", va, err))
				}
				// The MMC signalled bad parity; the OS services the
				// shadow page fault and the instruction is retried (§4).
				fc, ferr := c.VM.HandleShadowFault(sf)
				c.Charge(fc, KernelTime)
				if ferr != nil {
					panic(fmt.Sprintf("cpu: shadow fault at %v: %v", va, ferr))
				}
				faulted = true
				break
			}
			c.Charge(stats.Cycles(r.StallCPU), Memory)
		}
		if !faulted {
			var real arch.PAddr
			var page *[arch.PageSize]byte
			if m != nil && m.shGen == c.shadowGen() {
				real, page = m.realBase()|arch.PAddr(va.PageOff()), m.page
			} else {
				real, page = c.realPage(pa)
				m = nil
			}
			if !c.cfg.NoFastPath {
				c.memoize(m, va, e, kind, pa, real, page, cacheGen)
			}
			c.checkAccess(va, real)
			return page
		}
		if attempt >= 2 {
			panic(fmt.Sprintf("cpu: access at %v keeps faulting", va))
		}
	}
}

// Load issues one load instruction of the given size (1, 2, 4 or 8
// bytes) and returns the little-endian value read.
func (c *CPU) Load(va arch.VAddr, size int) uint64 {
	c.Loads++
	b := c.access(va, size, arch.Read)[va.PageOff():]
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		v := uint64(0)
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
}

// Store issues one store instruction of the given size.
func (c *CPU) Store(va arch.VAddr, size int, val uint64) {
	c.Stores++
	b := c.access(va, size, arch.Write)[va.PageOff():]
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, val)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		for i := 0; i < size; i++ {
			b[i] = byte(val >> (8 * i))
		}
	}
}

// Stream issues a batch of references in order, with semantics identical
// to the equivalent sequence of Load/Store/Step calls (workload.Streamer).
// Batching replaces one interface call per reference with one per batch;
// each reference still runs the full access path (or its fast path).
func (c *CPU) Stream(refs []workload.Ref) {
	for i := range refs {
		r := &refs[i]
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

var _ workload.Streamer = (*CPU)(nil)

// Step accounts n non-memory instructions (ALU, branches).
func (c *CPU) Step(n int) {
	if n > 0 {
		c.maybePreempt()
		if c.instr(n) {
			c.instrSlow()
		}
	}
}

// Sbrk extends the heap, charging kernel time, and returns the
// allocation base.
func (c *CPU) Sbrk(n uint64) arch.VAddr {
	base, cycles, err := c.VM.Sbrk(n)
	if err != nil {
		panic(fmt.Sprintf("cpu: sbrk(%d): %v", n, err))
	}
	c.Charge(cycles, KernelTime)
	return base
}

// Remap converts [base, base+size) to shadow-backed superpages via the
// remap() system call, charging kernel time. On systems without an MTLB
// it reports false and charges nothing, letting workloads run unchanged
// on baseline configurations.
func (c *CPU) Remap(base arch.VAddr, size uint64) bool {
	if !c.VM.HasShadow() {
		return false
	}
	res, err := c.VM.Remap(base, size)
	c.Charge(res.Total(), KernelTime)
	if err != nil {
		panic(fmt.Sprintf("cpu: remap(%v, %d): %v", base, size, err))
	}
	return true
}

// AllocRegion reserves a named virtual region and returns its base.
func (c *CPU) AllocRegion(name string, size uint64) arch.VAddr {
	return c.VM.AllocRegion(name, size).Base
}

// AllocAligned reserves a named region whose base is congruent to offset
// modulo align, reproducing segment alignments that determine superpage
// counts (paper §3.1).
func (c *CPU) AllocAligned(name string, size, align, offset uint64) arch.VAddr {
	return c.VM.AllocRegionAligned(name, size, align, offset).Base
}
