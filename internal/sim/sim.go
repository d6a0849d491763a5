// Package sim assembles the complete simulated machine — CPU, TLBs,
// cache, bus, memory controller with optional MTLB, DRAM, and the OS —
// and runs workloads on it, producing the measurements the paper's
// evaluation reports (§3.2).
//
// The simulated system models the paper's environment: a single-issue
// 240 MHz processor with a fully associative unified TLB and a perfect
// instruction cache; a 512 KB direct-mapped VIPT write-back data cache
// with 32-byte lines; a 120 MHz Runway-class bus; an HP-J-class memory
// controller, optionally fitted with an MTLB over a 512 MB shadow
// space; and a BSD-like microkernel whose boot, process lifecycle,
// timer, TLB miss handling and paging costs are all included in
// reported runtimes.
package sim

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/bus"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/core"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/kernel"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/mmc"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/ptable"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
)

// Physical memory map of the simulated machine. The kernel reserves low
// memory for its own structures; user frames are allocated above.
const (
	// ShadowTableBase is where the MMC's flat shadow-to-physical table
	// lives (512 KB for the default 512 MB shadow space).
	ShadowTableBase arch.PAddr = 0x00100000
	// HPTBase is where the hashed page table lives (256 KB).
	HPTBase arch.PAddr = 0x00200000
	// UserFrameBase is the first frame available to the allocator.
	UserFrameBase uint64 = 8 * arch.MB
)

// Config describes one machine configuration — a point in the paper's
// evaluation space.
type Config struct {
	// Label names the configuration in reports.
	Label string

	// DRAMBytes is installed memory; must end below the shadow space.
	DRAMBytes uint64
	// AllocOrder controls physical frame fragmentation (Scatter models
	// a long-running system; the paper's mechanism exists because free
	// memory is discontiguous).
	AllocOrder mem.AllocOrder
	// MaxUserFrames caps the frames available to the OS (0 = all of
	// DRAM beyond the kernel reserve). Small values create memory
	// pressure that exercises the page-out daemon.
	MaxUserFrames uint64

	// CPUTLBEntries sizes the processor TLB (paper: 64, 96, 128, 256).
	CPUTLBEntries int
	// TextPages and IFetchPeriod shape instruction-side TLB pressure.
	TextPages    int
	IFetchPeriod int
	// NoFastPath disables the CPU's fast-path access engine, forcing
	// every reference through the full TLB/cache/bus walk. Results are
	// identical either way (the differential tests prove it); the flag
	// exists so they can be compared and regressions bisected.
	NoFastPath bool

	// MTLB enables the memory-controller translation engine when
	// non-nil.
	MTLB *core.MTLBConfig
	// Scheme selects the translation backend fitted behind the MMC
	// when MTLB is non-nil: "" or "mtlb" is the paper's set-associative
	// MTLB; core.SchemeNames() lists the alternatives ("coalesced",
	// "spill"). Ignored on conventional (no-MTLB) systems.
	Scheme string
	// ShadowSpace is the shadow region (default: 512 MB at 0x80000000).
	ShadowSpace core.ShadowSpace
	// Partition is the bucket partition (default: the paper's Figure 2).
	Partition []core.BucketSpec
	// UseBuddy switches the shadow allocator to the buddy system
	// (the paper's future-work variant; ablation).
	UseBuddy bool
	// NoCheckCycle hides the per-operation MMC shadow check (ablation).
	NoCheckCycle bool
	// StreamBuffers enables the MMC prefetch extension (§6 future
	// work) with the given number of stream buffers.
	StreamBuffers int
	// DRAMBanks enables banked open-row DRAM timing (0 = flat latency).
	DRAMBanks int

	// Cache, Bus, MMCTiming and Costs parameterize the substrate.
	Cache     cache.Config
	Bus       bus.Config
	MMCTiming mmc.Timing
	Costs     kernel.Costs
	// HPTEntries sizes the hashed page table (default 16K, §3.2).
	HPTEntries int

	// SMP, when non-nil, selects the multicore machine (see smp.go): N
	// processors with private TLBs, micro-ITLBs and fast-path memos
	// over one shared bus, cache, MMC/MTLB, DRAM and shadow space. Nil
	// — the default — is the paper's uniprocessor; every existing cell
	// key and golden is untouched.
	SMP *SMPParams
}

// SMPParams parameterizes the multicore machine.
type SMPParams struct {
	// CPUs is the processor count (1 runs the multicore executor on a
	// single CPU — useful as the speedup baseline).
	CPUs int
	// Quantum is the length of a CPU's slot in a round, in entries: a
	// load or store is one, and the steps that follow it fold into it
	// (0 = DefaultSMPQuantum). Timing-visible: shorter quanta run
	// smaller slices per arbitration turn.
	Quantum int
	// ArbSeed perturbs the per-round rotation of the arbitration order
	// (0 = plain round-robin rotation). Results for different seeds
	// legitimately differ in timing; the schedule fuzzer proves the
	// functional counters never move.
	ArbSeed uint64
}

// DefaultSMPQuantum is the slot length, in entries, when
// SMPParams.Quantum is 0.
const DefaultSMPQuantum = 256

// WithSMP returns the config with an n-CPU multicore machine selected.
func (c Config) WithSMP(n int) Config {
	c.SMP = &SMPParams{CPUs: n}
	c.Label += fmt.Sprintf("+smp%d", n)
	return c
}

// Default returns the paper's base system: 96-entry CPU TLB, no MTLB.
func Default() Config {
	return Config{
		Label:         "base-96",
		DRAMBytes:     256 * arch.MB,
		AllocOrder:    mem.Scatter,
		CPUTLBEntries: 96,
		TextPages:     12,
		IFetchPeriod:  120,
		ShadowSpace:   core.DefaultShadowSpace(),
		Cache:         cache.DefaultConfig(),
		Bus:           bus.DefaultConfig(),
		MMCTiming:     mmc.DefaultTiming(),
		Costs:         kernel.DefaultCosts(),
		HPTEntries:    ptable.DefaultEntries,
	}
}

// WithTLB returns the config with a different CPU TLB size.
func (c Config) WithTLB(entries int) Config {
	c.CPUTLBEntries = entries
	c.Label = fmt.Sprintf("tlb%d", entries)
	if c.MTLB != nil {
		c.Label += fmt.Sprintf("+mtlb%d/%dw", c.MTLB.Entries, c.MTLB.Ways)
		c.Label += schemeSuffix(c.Scheme)
	}
	return c
}

// WithMTLB returns the config with an MTLB fitted. The geometry is
// normalized first so the label names what will actually be built.
func (c Config) WithMTLB(m core.MTLBConfig) Config {
	m.Normalize()
	c.MTLB = &m
	c.Label = fmt.Sprintf("tlb%d+mtlb%d/%dw", c.CPUTLBEntries, m.Entries, m.Ways)
	c.Label += schemeSuffix(c.Scheme)
	return c
}

// WithScheme returns the config with a translation scheme selected.
// Non-default schemes are appended to the label; the default scheme
// leaves labels (and therefore rendered tables) untouched.
func (c Config) WithScheme(scheme string) Config {
	c.Scheme = scheme
	if c.MTLB != nil {
		c.Label = fmt.Sprintf("tlb%d+mtlb%d/%dw", c.CPUTLBEntries, c.MTLB.Entries, c.MTLB.Ways)
		c.Label += schemeSuffix(scheme)
	}
	return c
}

// schemeSuffix names a non-default scheme in labels; the default scheme
// contributes nothing, keeping pre-interface labels (and every rendered
// table built from them) byte-identical.
func schemeSuffix(scheme string) string {
	if s := core.NormalizeScheme(scheme); s != core.DefaultScheme {
		return "+" + s
	}
	return ""
}

// machine is the hardware every processor and address space of an
// assembled system shares: DRAM and its frame pool, the bus, the data
// cache, the MMC with its translation backend, the kernel and the
// shadow allocator. System, SMPSystem and MultiSystem each embed the
// one assemble builds and add their processors; the machine places
// their address spaces, collects their Results and registers the
// shared layers' metrics.
type machine struct {
	Cfg    Config
	Dram   *mem.DRAM
	Frames *mem.FrameAlloc
	Bus    *bus.Bus
	Cache  *cache.Cache
	// Translator is the MMC's translation backend (nil on conventional
	// systems): the scheme the config selected, seen through the
	// interface every consumer — MMC fill path, invariant audits, fast
	// path memo validation — works against.
	Translator core.Translator
	MMC        *mmc.MMC
	Kernel     *kernel.Kernel

	shadowAlloc core.ShadowAllocator // nil on conventional systems
	obs         *obs.Obs             // attached session, nil when unobserved
}

// assemble builds the shared hardware for a configuration.
func assemble(cfg Config) *machine {
	if cfg.DRAMBytes == 0 {
		panic("sim: zero DRAM")
	}
	if uint64(cfg.ShadowSpace.Base) < cfg.DRAMBytes {
		panic(fmt.Sprintf("sim: shadow space at %v overlaps %d MB of DRAM",
			cfg.ShadowSpace.Base, cfg.DRAMBytes/arch.MB))
	}
	m := &machine{
		Cfg:    cfg,
		Dram:   mem.NewDRAM(cfg.DRAMBytes),
		Bus:    bus.New(cfg.Bus),
		Cache:  cache.New(cfg.Cache),
		Kernel: kernel.New(cfg.Costs),
	}
	userFrames := (cfg.DRAMBytes - UserFrameBase) / arch.PageSize
	if cfg.MaxUserFrames > 0 && cfg.MaxUserFrames < userFrames {
		userFrames = cfg.MaxUserFrames
	}
	m.Frames = mem.NewFrameAlloc(UserFrameBase/arch.PageSize, userFrames, cfg.AllocOrder)

	if cfg.MTLB != nil {
		// Normalize here, at the single point every entry path funnels
		// through, so flag-derived geometries (e.g. -ways larger than
		// -mtlb) mean the same thing in every command.
		mcfg := *cfg.MTLB
		mcfg.Normalize()
		tr, err := core.NewTranslator(cfg.Scheme, mcfg, core.TranslatorDeps{
			Table: core.NewShadowTable(cfg.ShadowSpace, ShadowTableBase, m.Dram),
			Cache: m.Cache,
			Costs: cfg.MMCTiming.TranslatorCosts(),
		})
		if err != nil {
			panic("sim: " + err.Error())
		}
		m.Translator = tr
		if cfg.UseBuddy {
			m.shadowAlloc = core.NewBuddyAlloc(cfg.ShadowSpace)
		} else {
			part := cfg.Partition
			if part == nil {
				part = core.DefaultPartition()
			}
			m.shadowAlloc = core.NewBucketAlloc(cfg.ShadowSpace, part)
		}
	}
	m.MMC = mmc.New(mmc.Config{
		Timing:        cfg.MMCTiming,
		NoCheckCycle:  cfg.NoCheckCycle,
		StreamBuffers: cfg.StreamBuffers,
		DRAMBanks:     cfg.DRAMBanks,
	}, m.Bus, m.Translator)
	return m
}

// addressSpace builds address space slot over the shared hardware, on
// the TLB pair of the processor that first runs in it. Its hashed page
// table is the slot-th one up from HPTBase in the kernel reserve; every
// space shares the shadow table and allocator.
func (m *machine) addressSpace(slot int, t *tlb.TLB, it *tlb.MicroITLB) *vm.VM {
	size := arch.PAddr(m.Cfg.HPTEntries * ptable.EntryBytes)
	base := HPTBase + arch.PAddr(slot)*size
	if !m.Dram.Contains(base + size) {
		panic("sim: too many address spaces for the kernel reserve")
	}
	var stable *core.ShadowTable
	if m.Translator != nil {
		stable = m.Translator.Table()
	}
	return vm.New(vm.Deps{
		Dram: m.Dram, Frames: m.Frames, HPT: ptable.New(base, m.Cfg.HPTEntries),
		MMC: m.MMC, Cache: m.Cache, CPUTLB: t, ITLB: it, Kernel: m.Kernel,
		ShadowAlloc: m.shadowAlloc, STable: stable,
	})
}

// newCPU wires a processor on its own TLB pair over address space v.
func (m *machine) newCPU(v *vm.VM, t *tlb.TLB, it *tlb.MicroITLB) *cpu.CPU {
	return cpu.NewOnTLBs(cpu.Config{
		TLBEntries:   m.Cfg.CPUTLBEntries,
		TextPages:    m.Cfg.TextPages,
		IFetchPeriod: m.Cfg.IFetchPeriod,
		NoFastPath:   m.Cfg.NoFastPath,
	}, v, t, it)
}

// result collects the measurements of a finished run of the named
// workload on the given processors and address spaces: cycles,
// instructions and TLB lookups summed over the processors, the largest
// TLB reach any of them reached, misses, faults and superpage counts
// summed over the address spaces, and the shared layers' figures.
func (m *machine) result(name string, cpus []*cpu.CPU, vms []*vm.VM) Result {
	res := Result{
		Label:        m.Cfg.Label,
		Workload:     name,
		CacheHitRate: m.Cache.Stats.Rate(),
		Fills:        m.MMC.Fills,
		StreamHits:   m.MMC.StreamHits(),
		AvgFillMMC:   m.MMC.AvgFillMMCCycles(),
		RowHitRate:   m.MMC.RowHitRate(),
	}
	var lookups stats.HitMiss
	for _, c := range cpus {
		res.Breakdown.Add(c.Breakdown)
		res.Instructions += c.Instructions
		lookups.Hits += c.TLB.Stats.Hits
		lookups.Misses += c.TLB.Stats.Misses
		res.CPUTLBReachPeak = max(res.CPUTLBReachPeak, c.TLB.Reach())
	}
	res.TLBHitRate = lookups.Rate()
	for _, v := range vms {
		res.TLBMisses += v.TLBMisses
		res.PageFaults += v.PageFaults
	}
	if m.Translator != nil {
		c := m.Translator.Counters()
		res.HasMTLB = true
		res.Scheme = m.Translator.Scheme()
		res.MTLBHitRate = c.HitRate()
		res.MTLBFills = c.Fills
		for _, v := range vms {
			res.SuperpagesMade += v.SuperpagesMade
			res.PagesRemapped += v.PagesRemapped
		}
	}
	return res
}

// observe attaches an observability session: the boot processor cpu0
// drives the timeline's clock, and it, address space vm0 and every
// shared layer register their metrics and take their instrument
// pointers.
func (m *machine) observe(o *obs.Obs, cpu0 *cpu.CPU, vm0 *vm.VM) {
	m.obs = o
	if tl := o.Timeline(); tl != nil {
		tl.Now = func() uint64 { return uint64(cpu0.Cycles()) }
	}
	r := o.Registry()
	cpu0.TLB.RegisterMetrics(r, "tlb")
	m.Cache.RegisterMetrics(r)
	m.Kernel.RegisterMetrics(r)
	if m.Translator != nil {
		m.Translator.RegisterMetrics(r)
	}
	m.MMC.Observe(o)
	vm0.Observe(o)
	cpu0.Observe(o)
}

// System is an assembled uniprocessor: one CPU in one address space.
type System struct {
	*machine
	CPUTLB *tlb.TLB       // the CPU's TLB
	ITLB   *tlb.MicroITLB // and micro-ITLB
	VM     *vm.VM
	CPU    *cpu.CPU

	// OnRunEnd, when set, fires at the end of Run after the workload and
	// process exit complete, before the result is returned — the
	// invariant harness's final whole-machine audit point.
	OnRunEnd func()
}

// OnNewSystem, when set, is invoked with every system New assembles,
// immediately after wiring completes — uniprocessors, and through New
// the multiprogrammed machines. The invariant harness installs itself
// here so a single -check flag covers every entry path — direct sims,
// runner pools, and serve jobs — without touching Config (cell cache
// keys must not change). Runner pools assemble systems from multiple
// goroutines, so the hook must be safe for concurrent calls; set it
// before any simulation starts.
var OnNewSystem func(*System)

// Observe attaches an observability session to an assembled machine:
// the timeline's clock becomes the CPU cycle count and every layer —
// processor TLB, data cache, MTLB, MMC, kernel, VM, CPU — registers its
// metrics and takes its instrument pointers. Call before Run; a nil o
// leaves the system unobserved. Observing does not perturb simulated
// timing: every metric reads state the machine already maintains.
func (s *System) Observe(o *obs.Obs) {
	if o != nil {
		s.observe(o, s.CPU, s.VM)
	}
}

// New assembles a machine from the configuration.
func New(cfg Config) *System {
	s := &System{
		machine: assemble(cfg),
		CPUTLB:  tlb.New(tlb.FullyAssociative(cfg.CPUTLBEntries)),
		ITLB:    &tlb.MicroITLB{},
	}
	s.VM = s.addressSpace(0, s.CPUTLB, s.ITLB)
	s.CPU = s.newCPU(s.VM, s.CPUTLB, s.ITLB)
	// Explicit shootdown hook: OS translation changes drop the CPU's
	// fast-path memo directly, on top of the generation checks.
	s.VM.OnShootdown = s.CPU.FlushMemo
	if OnNewSystem != nil {
		OnNewSystem(s)
	}
	return s
}

// Result is the measurement set of one run — the quantities the paper's
// figures are built from.
type Result struct {
	Label     string
	Workload  string
	Breakdown stats.Breakdown

	Instructions uint64
	TLBMisses    uint64
	TLBHitRate   float64
	CacheHitRate float64
	PageFaults   uint64

	// MTLB-side measurements (zero without an MTLB). Scheme names the
	// translation backend that produced them ("" without one).
	HasMTLB         bool
	Scheme          string
	MTLBHitRate     float64
	MTLBFills       uint64
	SuperpagesMade  uint64
	PagesRemapped   uint64
	AvgFillMMC      float64 // Figure 4(B): MMC cycles per cache fill
	Fills           uint64
	StreamHits      uint64
	RowHitRate      float64 // banked DRAM timing only (zero when flat)
	CPUTLBReachPeak uint64

	// Multicore measurements (zero on uniprocessor runs). Breakdown
	// above is the sum over all CPUs; MachineCycles is the simulated
	// wall clock — the slowest processor's completion time including
	// barrier idling. All fields are scalars so Result stays comparable
	// with == (memoization, caches and the differential suites rely on
	// that).
	CPUs           int
	MachineCycles  uint64
	IPIs           uint64 // shootdown IPIs delivered to remote CPUs
	BusStallCycles uint64 // cycles lost to inter-CPU bus contention
	BarrierCycles  uint64 // cycles idle at parallel-workload barriers
	MaxCPUCycles   uint64 // busiest processor's charged (non-idle) cycles
	MinCPUCycles   uint64 // least-loaded processor's charged cycles
}

// TotalCycles returns the run's total simulated CPU cycles.
func (r Result) TotalCycles() stats.Cycles { return r.Breakdown.Total() }

// TLBFraction returns the fraction of runtime in TLB miss handling.
func (r Result) TLBFraction() float64 { return r.Breakdown.TLBFraction() }

// Run boots the system, executes the workload as a process, and collects
// the result. Runtimes include kernel initialization, process startup
// and exit, as in the paper ("complete simulation times from
// initialization of the BSD-based (micro)kernel ... through completion
// of process exit()", §3.2).
func (s *System) Run(w workload.Workload) Result {
	s.CPU.Charge(s.Kernel.Boot(), cpu.KernelTime)
	startProcess(s.CPU, s.VM, w)
	w.Run(s.CPU)

	s.CPU.Charge(s.Kernel.ExitProcess(), cpu.KernelTime)

	if s.OnRunEnd != nil {
		s.OnRunEnd()
	}

	res := s.result(w.Name(), []*cpu.CPU{s.CPU}, []*vm.VM{s.VM})
	// Close out the time series at the run's final cycle so the last
	// partial interval is covered.
	s.obs.Sampler().Final(uint64(s.CPU.Cycles()))
	return res
}

// RunOn is a convenience: assemble a fresh system and run the workload.
func RunOn(cfg Config, w workload.Workload) Result {
	return New(cfg).Run(w)
}

// RunObserved assembles a fresh system, attaches the observability
// session, and runs the workload. A nil o degrades to RunOn exactly.
func RunObserved(cfg Config, w workload.Workload, o *obs.Obs) Result {
	s := New(cfg)
	s.Observe(o)
	return s.Run(w)
}
