package sim

import (
	"fmt"
	"strconv"

	"shadowtlb/internal/cpu"
	"shadowtlb/internal/obs"
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
// Any other workload runs as a one-member mix: serially on CPU 0, with
// the remaining CPUs idle.
//
// The executor (executor.go, DESIGN §17) runs each CPU's thread on the
// CPU's timing model directly, one thread at a time, in slots of a
// fixed per-round arbitration order, so results are bit-identical for
// any GOMAXPROCS.
type SMPSystem struct {
	*machine
	N int

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
	IPIsRecv []uint64       // shootdown IPIs received

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
// twin of OnNewSystem, which NewSMP does not fire, with the same
// concurrency contract.
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
	s := &SMPSystem{
		machine:  assemble(cfg),
		N:        n,
		Idle:     make([]stats.Cycles, n),
		BusStall: make([]stats.Cycles, n),
		IPIsRecv: make([]uint64, n),
		w:        w,
		threads:  make([]smpThread, n),
	}
	// Every processor starts in address space 0, which is built on the
	// boot processor's TLB pair.
	var vm0 *vm.VM
	for i := 0; i < n; i++ {
		t, it := tlb.New(tlb.FullyAssociative(cfg.CPUTLBEntries)), &tlb.MicroITLB{}
		if i == 0 {
			vm0 = s.addressSpace(0, t, it)
		}
		s.CPUs = append(s.CPUs, s.newCPU(vm0, t, it))
	}

	if _, ok := w.(workload.Parallel); ok {
		s.Shared = true
		s.VMs = []*vm.VM{vm0}
		// Every processor's TLB pair consumes the shared address space:
		// remap and recolor purge the affected range on all of them,
		// and the shootdown hook below charges the IPI round.
		for _, c := range s.CPUs[1:] {
			vm0.AddPeerTLB(c.TLB, c.ITLB)
		}
		vm0.OnShootdown = s.shootdownIPI
	} else {
		// Mix member k runs on CPU k mod N. Any other workload is a
		// one-member mix: CPU 0 runs it in address space 0.
		members := []workload.Workload{w}
		if mw, ok := w.(workload.Multi); ok {
			members = mw.Members()
		}
		for k, mw := range members {
			c, th := s.CPUs[k%n], &s.threads[k%n]
			v := vm0
			if k > 0 {
				// Each further member gets its own address space on its
				// CPU's TLB pair.
				v = s.addressSpace(k, c.TLB, c.ITLB)
			}
			// Private address space: translation changes concern only
			// the owning CPU's memo.
			v.OnShootdown = c.FlushMemo
			s.VMs = append(s.VMs, v)
			th.members = append(th.members, mw)
			th.vms = append(th.vms, v)
		}
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

	res := s.result(s.w.Name(), s.CPUs, s.VMs)
	res.CPUs = s.N
	res.MinCPUCycles = ^uint64(0)
	for i, c := range s.CPUs {
		s.MachineCycles = max(s.MachineCycles, s.clock(i))
		w := uint64(c.Breakdown.Total())
		res.MaxCPUCycles = max(res.MaxCPUCycles, w)
		res.MinCPUCycles = min(res.MinCPUCycles, w)
		res.IPIs += s.IPIsRecv[i]
		res.BusStallCycles += uint64(s.BusStall[i])
		res.BarrierCycles += uint64(s.Idle[i])
	}
	res.MachineCycles = s.MachineCycles
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
	s.observe(o, s.CPUs[0], s.VMs[0])
	r := o.Registry()
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
