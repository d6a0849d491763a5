package sim

import (
	"fmt"

	"shadowtlb/internal/cpu"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
)

// Multiprogramming. The paper motivates the MTLB with commercial
// workloads, which are inherently multiprogrammed; this file adds a
// round-robin scheduler so several processes share the machine.
//
// The processor TLB has no address-space identifiers (like the paper's
// PA-RISC model with a flushed unified TLB), so every context switch
// flushes it and the micro-ITLB: the incoming process must re-fault its
// working set into the TLB. This is where superpages shine twice over —
// a process whose working set is mapped by a handful of superpage
// entries refills its TLB in a few misses instead of hundreds, and the
// MTLB itself is indexed by *physical* (shadow) addresses, so its
// contents remain valid across switches.
//
// Scheduling is deterministic: each process runs as a simulated thread
// (thread.go) that the scheduler resumes and that yields at the end of
// its slice, so exactly one goroutine runs at any time.

// Proc is one scheduled process.
type Proc struct {
	Workload workload.Workload
	VM       *vm.VM

	// Cycles is the machine time charged while this process was
	// scheduled (including its kernel work).
	Cycles stats.Cycles
	// TLBMissCycles is the portion spent in TLB miss handling.
	TLBMissCycles stats.Cycles
	// Switches counts times the process was scheduled in.
	Switches uint64

	t *thread
}

// MultiSystem is a machine shared by several processes: one set of
// hardware (cache, TLB, bus, MMC/MTLB, DRAM, frame pool, shadow space)
// and per-process address spaces (VM + hashed page table).
type MultiSystem struct {
	*machine
	Quantum stats.Cycles

	CPU   *cpu.CPU
	Procs []*Proc
}

// NewMulti assembles the shared machine and one address space per
// workload. quantum is the scheduling quantum in CPU cycles. Process 0
// runs in the address space New builds, so OnNewSystem fires for the
// machine.
func NewMulti(cfg Config, workloads []workload.Workload, quantum stats.Cycles) *MultiSystem {
	if len(workloads) == 0 {
		panic("sim: no workloads")
	}
	if quantum <= 0 {
		panic("sim: non-positive quantum")
	}
	base := New(cfg)
	ms := &MultiSystem{machine: base.machine, Quantum: quantum, CPU: base.CPU}
	for i, w := range workloads {
		v := base.VM
		if i > 0 {
			v = ms.addressSpace(i, base.CPUTLB, base.ITLB)
			v.OnShootdown = ms.CPU.FlushMemo
		}
		ms.Procs = append(ms.Procs, &Proc{Workload: w, VM: v})
	}
	return ms
}

// Run executes all processes to completion under round-robin scheduling
// and returns total machine cycles.
func (ms *MultiSystem) Run() stats.Cycles {
	c := ms.CPU
	c.Charge(ms.Kernel.Boot(), cpu.KernelTime)
	c.Quantum = ms.Quantum

	// Each process body is parked until first scheduled.
	var ts threadSet
	defer ts.stop()
	for _, p := range ms.Procs {
		p.t = ts.start(func() {
			startProcess(c, p.VM, p.Workload)
			p.Workload.Run(c)
			c.Charge(ms.Kernel.ExitProcess(), cpu.KernelTime)
		})
	}

	// The scheduler: strict round robin over unfinished processes.
	// OnQuantum hands the machine back here from the running process.
	var current *Proc
	c.OnQuantum = func() { current.t.yield() }

	remaining := len(ms.Procs)
	idx := 0
	for remaining > 0 {
		p := ms.Procs[idx%len(ms.Procs)]
		idx++
		if p.t.done {
			continue
		}
		// Dispatch p: context switch if the CPU was running another
		// address space. The switch cost is attributed to the incoming
		// process, as its slice pays for being dispatched.
		before := c.Breakdown
		if current != p {
			if current != nil || c.VM != p.VM {
				c.SwitchVM(p.VM)
			}
			p.Switches++
		}
		current = p
		p.t.run()
		delta := c.Breakdown
		p.Cycles += delta.Total() - before.Total()
		p.TLBMissCycles += delta.TLBMiss - before.TLBMiss

		if p.t.done {
			remaining--
		}
	}
	c.OnQuantum = nil
	c.Quantum = 0
	return c.Breakdown.Total()
}

// String summarizes per-process accounting.
func (ms *MultiSystem) String() string {
	s := ""
	for i, p := range ms.Procs {
		s += fmt.Sprintf("proc %d (%s): %d cycles, %d switches, tlb-miss %d\n",
			i, p.Workload.Name(), p.Cycles, p.Switches, p.TLBMissCycles)
	}
	return s
}
