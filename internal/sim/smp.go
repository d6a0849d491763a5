package sim

import (
	"fmt"
	"strconv"

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

// Multicore machine. SMPSystem generalizes System to N processors, each
// with its own front TLB, micro-ITLB and §10 fast-path memo, sharing
// one bus, data cache, MMC (and through it the MTLB and shadow space),
// DRAM, frame pool and kernel — the shape the die-stacked multicore TLB
// literature probes.
//
// Two workload shapes run on it:
//
//   - workload.Parallel: one process, one shared address space, one
//     thread per CPU. Remaps by any thread shoot down stale TLB entries
//     and memos on every other CPU, charging IPI dispatch and handler
//     cycles (Costs.ShootdownIPI / Costs.ShootdownAck).
//   - workload.Multi: a multiprogrammed mix — independent processes in
//     per-process address spaces, statically assigned round-robin to
//     CPUs (member i on CPU i mod N, same-CPU members run back to back
//     with a context switch). Address spaces are private, so no
//     cross-CPU shootdowns arise; pressure on the shared MTLB and bus
//     is the object of study.
//
// Any other workload runs serially on CPU 0 with the remaining CPUs
// idle.
//
// The executor (executor.go, DESIGN §17) runs each CPU's thread on the
// CPU's timing model directly, one thread at a time, in slots of a
// fixed per-round arbitration order, so results are bit-identical for
// any GOMAXPROCS.
type SMPSystem struct {
	Cfg Config
	N   int

	Dram       *mem.DRAM
	Frames     *mem.FrameAlloc
	Bus        *bus.Bus
	Cache      *cache.Cache
	HPT        *ptable.Table
	Translator core.Translator
	MMC        *mmc.MMC
	Kernel     *kernel.Kernel

	// CPUs are the processors; CPUs[i].TLB and .ITLB are private.
	CPUs []*cpu.CPU
	// VMs are the address spaces: exactly one in shared (Parallel)
	// mode, one per mix member in multiprogrammed mode.
	VMs []*vm.VM
	// Shared reports whether all CPUs share VMs[0].
	Shared bool

	// Per-CPU accounting maintained by the executor.
	Idle     []stats.Cycles // cycles idle at barriers (not in Breakdown)
	BusStall []stats.Cycles // contention stalls (also in Breakdown.Memory)
	IPIsSent []uint64
	IPIsRecv []uint64

	// MachineCycles is the simulated wall clock after Run: the slowest
	// processor's completion time including barrier idling.
	MachineCycles uint64

	// OnQuantum, when set, fires after each executor round, with the
	// machine in a consistent state: the fault injector's and invariant
	// sweeps' multicore hook.
	OnQuantum func(round uint64)
	// OnRunEnd fires after the workload and process exits complete,
	// before the result is collected — the final whole-machine audit.
	OnRunEnd func()

	w       workload.Workload
	threads []smpThread // one per CPU: its program and address spaces
	ran     bool
	cur     int // CPU whose thread holds the machine
	obs     *obs.Obs
}

// smpThread is the program one CPU executes: in shared mode a single
// Parallel thread; in multiprogrammed mode a sequence of members, each
// with its own VM.
type smpThread struct {
	members []workload.Workload // nil in shared mode
	vms     []*vm.VM            // per-member address spaces
}

// OnNewSMPSystem, when set, is invoked with every multicore system
// NewSMP assembles, immediately after wiring completes — the multicore
// twin of OnNewSystem, with the same concurrency contract.
var OnNewSMPSystem func(*SMPSystem)

// NewSMP assembles the multicore machine for the given workload. The
// workload determines the machine's address-space shape (shared vs.
// multiprogrammed), so unlike New it is needed at assembly time.
func NewSMP(cfg Config, w workload.Workload) *SMPSystem {
	if cfg.SMP == nil {
		panic("sim: NewSMP without Config.SMP")
	}
	n := cfg.SMP.CPUs
	if n <= 0 {
		panic(fmt.Sprintf("sim: bad CPU count %d", n))
	}

	base := New(cfg) // CPU 0 and the shared substrate use the standard assembly
	s := &SMPSystem{
		Cfg: cfg, N: n,
		Dram: base.Dram, Frames: base.Frames, Bus: base.Bus,
		Cache: base.Cache, HPT: base.HPT, Translator: base.Translator,
		MMC: base.MMC, Kernel: base.Kernel,
		CPUs:     []*cpu.CPU{base.CPU},
		Idle:     make([]stats.Cycles, n),
		BusStall: make([]stats.Cycles, n),
		IPIsSent: make([]uint64, n),
		IPIsRecv: make([]uint64, n),
		w:        w,
	}

	ccfg := cpu.Config{
		TLBEntries:   cfg.CPUTLBEntries,
		TextPages:    cfg.TextPages,
		IFetchPeriod: cfg.IFetchPeriod,
		NoFastPath:   cfg.NoFastPath,
	}
	for i := 1; i < n; i++ {
		t := tlb.New(tlb.FullyAssociative(cfg.CPUTLBEntries))
		it := &tlb.MicroITLB{}
		s.CPUs = append(s.CPUs, cpu.NewOnTLBs(ccfg, base.VM, t, it))
	}

	switch pw := w.(type) {
	case workload.Parallel:
		_ = pw
		s.Shared = true
		s.VMs = []*vm.VM{base.VM}
		// Every processor's TLB pair consumes the shared address space:
		// remap and recolor purge the affected range on all of them,
		// and the shootdown hook below charges the IPI round.
		for i := 1; i < n; i++ {
			base.VM.AddPeerTLB(s.CPUs[i].TLB, s.CPUs[i].ITLB)
		}
		base.VM.OnShootdown = s.shootdownIPI
		s.threads = make([]smpThread, n)
	case workload.Multi:
		members := pw.Members()
		s.threads = make([]smpThread, n)
		for m, mw := range members {
			i := m % n
			v := base.VM
			if m > 0 {
				// Each further process gets its own hashed page table
				// in a distinct kernel region and its own VM over the
				// shared hardware, with the owning CPU's TLB pair.
				hptBase := HPTBase + arch.PAddr(m)*arch.PAddr(cfg.HPTEntries*ptable.EntryBytes)
				if !s.Dram.Contains(hptBase + arch.PAddr(cfg.HPTEntries*ptable.EntryBytes)) {
					panic("sim: too many mix members for the kernel reserve")
				}
				var stable *core.ShadowTable
				var shadowAlloc core.ShadowAllocator
				if base.Translator != nil {
					stable = base.Translator.Table()
					shadowAlloc = base.VM.ShadowAlloc
				}
				v = vm.New(vm.Deps{
					Dram: s.Dram, Frames: s.Frames,
					HPT: ptable.New(hptBase, cfg.HPTEntries),
					MMC: s.MMC, Cache: s.Cache,
					CPUTLB: s.CPUs[i].TLB, ITLB: s.CPUs[i].ITLB,
					Kernel:      s.Kernel,
					ShadowAlloc: shadowAlloc, STable: stable,
				})
			}
			// Private address space: translation changes concern only
			// the owning CPU's memo. (Member 0 reuses base.VM, whose
			// hook New pointed at CPU 0 — the owning CPU.)
			v.OnShootdown = s.CPUs[i].FlushMemo
			s.VMs = append(s.VMs, v)
			s.threads[i].members = append(s.threads[i].members, mw)
			s.threads[i].vms = append(s.threads[i].vms, v)
		}
		if len(members) > 0 && len(s.threads[0].vms) > 0 && s.threads[0].vms[0] != base.VM {
			panic("sim: mix member 0 must run on CPU 0")
		}
	default:
		// Serial workload: CPU 0 runs it alone, the rest stay idle.
		s.VMs = []*vm.VM{base.VM}
		s.threads = make([]smpThread, n)
		s.threads[0].members = []workload.Workload{w}
		s.threads[0].vms = []*vm.VM{base.VM}
	}

	if OnNewSMPSystem != nil {
		OnNewSMPSystem(s)
	}
	return s
}

// shootdownIPI is the shared-address-space shootdown broadcaster,
// installed as VMs[0].OnShootdown: the initiating CPU (the one whose
// thread holds the machine) pays one IPI dispatch per remote
// processor; each remote processor pays the handler cost and loses its
// micro-ITLB and fast-path memo. The stale front-TLB range itself was
// already purged by the VM's peer fan-out before this hook fires.
func (s *SMPSystem) shootdownIPI() {
	i := s.cur
	s.CPUs[i].FlushMemo()
	if s.N == 1 {
		return
	}
	c := s.Kernel.Costs
	for j := range s.CPUs {
		if j == i {
			continue
		}
		s.CPUs[j].ITLB.Purge()
		s.CPUs[j].FlushMemo()
		s.CPUs[i].Charge(stats.Cycles(c.ShootdownIPI), cpu.KernelTime)
		s.CPUs[j].Charge(stats.Cycles(c.ShootdownAck), cpu.KernelTime)
		s.IPIsSent[i]++
		s.IPIsRecv[j]++
	}
}

// clock returns CPU i's position on the machine's time axis: work
// charged plus cycles idled at barriers.
func (s *SMPSystem) clock(i int) uint64 {
	return uint64(s.CPUs[i].Breakdown.Total() + s.Idle[i])
}

// Run executes the workload to completion and collects the result.
func (s *SMPSystem) Run() Result {
	if s.ran {
		panic("sim: SMPSystem ran twice")
	}
	s.ran = true
	s.execute()

	if s.OnRunEnd != nil {
		s.OnRunEnd()
	}

	var bd stats.Breakdown
	var instr uint64
	var th stats.HitMiss
	var reach uint64
	for i, c := range s.CPUs {
		bd.Add(c.Breakdown)
		instr += c.Instructions
		th.Hits += c.TLB.Stats.Hits
		th.Misses += c.TLB.Stats.Misses
		if r := c.TLB.Reach(); r > reach {
			reach = r
		}
		if cl := s.clock(i); cl > s.MachineCycles {
			s.MachineCycles = cl
		}
	}
	res := Result{
		Label:        s.Cfg.Label,
		Workload:     s.w.Name(),
		Breakdown:    bd,
		Instructions: instr,
		TLBHitRate:   th.Rate(),
		CacheHitRate: s.Cache.Stats.Rate(),
		Fills:        s.MMC.Fills,
		StreamHits:   s.MMC.StreamHits(),
		AvgFillMMC:   s.MMC.AvgFillMMCCycles(),
		RowHitRate:   s.MMC.RowHitRate(),
	}
	for _, v := range s.VMs {
		res.TLBMisses += v.TLBMisses
		res.PageFaults += v.PageFaults
	}
	if s.Translator != nil {
		c := s.Translator.Counters()
		res.HasMTLB = true
		res.Scheme = s.Translator.Scheme()
		res.MTLBHitRate = c.HitRate()
		res.MTLBFills = c.Fills
		for _, v := range s.VMs {
			res.SuperpagesMade += v.SuperpagesMade
			res.PagesRemapped += v.PagesRemapped
		}
	}
	res.CPUTLBReachPeak = reach
	res.CPUs = s.N
	res.MachineCycles = s.MachineCycles
	res.MaxCPUCycles = 0
	res.MinCPUCycles = ^uint64(0)
	for i := range s.CPUs {
		w := uint64(s.CPUs[i].Breakdown.Total())
		if w > res.MaxCPUCycles {
			res.MaxCPUCycles = w
		}
		if w < res.MinCPUCycles {
			res.MinCPUCycles = w
		}
		res.IPIs += s.IPIsRecv[i]
		res.BusStallCycles += uint64(s.BusStall[i])
		res.BarrierCycles += uint64(s.Idle[i])
	}
	s.obs.Sampler().Final(s.MachineCycles)
	return res
}

// Observe attaches an observability session: shared components register
// their usual metrics, CPU 0 additionally drives the sampler and
// timeline (as the boot processor), and per-CPU cycle totals appear as
// one labeled series per processor under smp.*.
func (s *SMPSystem) Observe(o *obs.Obs) {
	if o == nil {
		return
	}
	s.obs = o
	if tl := o.Timeline(); tl != nil {
		tl.Now = func() uint64 { return uint64(s.CPUs[0].Cycles()) }
	}
	r := o.Registry()
	s.CPUs[0].TLB.RegisterMetrics(r, "tlb")
	s.Cache.RegisterMetrics(r)
	s.Kernel.RegisterMetrics(r)
	if s.Translator != nil {
		s.Translator.RegisterMetrics(r)
	}
	s.MMC.Observe(o)
	s.VMs[0].Observe(o)
	s.CPUs[0].Observe(o)
	for i := range s.CPUs {
		i := i
		l := obs.Label{Key: "cpu", Value: strconv.Itoa(i)}
		r.CounterFuncL("smp.cpu_cycles", func() uint64 { return uint64(s.CPUs[i].Breakdown.Total()) }, l)
		r.CounterFuncL("smp.barrier_idle_cycles", func() uint64 { return uint64(s.Idle[i]) }, l)
		r.CounterFuncL("smp.bus_stall_cycles", func() uint64 { return uint64(s.BusStall[i]) }, l)
		r.CounterFuncL("smp.ipis_received", func() uint64 { return s.IPIsRecv[i] }, l)
	}
	r.CounterFunc("smp.ipis", func() uint64 {
		var t uint64
		for i := range s.IPIsRecv {
			t += s.IPIsRecv[i]
		}
		return t
	})
	r.GaugeFunc("smp.machine_cycles", func() float64 { return float64(s.MachineCycles) })
}

// RunSMP assembles a fresh multicore machine and runs the workload.
func RunSMP(cfg Config, w workload.Workload) Result {
	return NewSMP(cfg, w).Run()
}

// RunSMPObserved is RunSMP with an observability session attached; a
// nil o degrades to RunSMP exactly.
func RunSMPObserved(cfg Config, w workload.Workload, o *obs.Obs) Result {
	s := NewSMP(cfg, w)
	s.Observe(o)
	return s.Run()
}
