// Package kernel models the BSD-based microkernel of the paper's
// simulation environment (§3.2): boot/initialization, process lifecycle
// (fork/exec/exit), syscall dispatch, timer interrupts, and the cost
// parameters of the software TLB miss handler and of superpage creation.
//
// The kernel's influence on the paper's results flows almost entirely
// through cycle costs, so this package is primarily a calibrated cost
// model plus the accounting that attributes those cycles to the right
// breakdown categories.
package kernel

import (
	"math"

	"shadowtlb/internal/stats"
)

// Costs enumerates every fixed CPU-cycle cost the simulated OS charges.
// Values are CPU cycles at 240 MHz. The calibration notes reference the
// paper's reported numbers.
type Costs struct {
	// TrapEntryExit is charged per software TLB miss, covering trap
	// entry, register save/restore and return; the handler's hashed-
	// page-table probes are charged separately as real memory accesses.
	TrapEntryExit int
	// TLBInsert is the cost of installing the found PTE into the TLB.
	TLBInsert int
	// ProbeCompute is the per-probe arithmetic (hashing, tag compare)
	// in the miss handler, excluding the probe's memory access.
	ProbeCompute int

	// PageFaultService is the kernel work to service a page fault:
	// allocating a frame, updating tables. Zero-fill is charged
	// separately per line so cache effects are modelled.
	PageFaultService int
	// ZeroFillPerLine is the cost per cache line of zeroing a new page.
	ZeroFillPerLine int

	// SyscallOverhead is charged per system call (e.g. remap, sbrk).
	SyscallOverhead int
	// FlushPerLine is the per-line cost of the cache flush loop during
	// remap; with 128 lines per 4 KB page this dominates the paper's
	// ~1400 cycles/page flush cost (§3.3).
	FlushPerLine int
	// RemapPerPage is the non-flush per-page remap overhead: shadow
	// bucket allocation amortized, page-table edits, TLB shootdown.
	// Paper: em3d remapped 1120 pages with 162,087 cycles of non-flush
	// overhead, ~145 cycles/page (§3.3).
	RemapPerPage int
	// PageCopy is the cost of copying one warm 4 KB page, reported by
	// the paper (11,400 cycles) for comparison with remapping; used by
	// the copying-promotion baseline.
	PageCopy int

	// Boot is the one-time kernel initialization cost, and ForkExec /
	// Exit the process lifecycle costs, all included in reported
	// runtimes as in the paper.
	Boot     int
	ForkExec int
	Exit     int

	// TimerPeriod is the interval between timer interrupts in CPU
	// cycles (10 ms at 240 MHz = 2.4M cycles); TimerHandler is the cost
	// of each tick.
	TimerPeriod  int
	TimerHandler int

	// ContextSwitch is the dispatcher cost of switching processes
	// (register save/restore, run-queue work), excluding the TLB refill
	// misses the switched-to process then takes.
	ContextSwitch int

	// DiskPageIO is the cycle cost of one 4 KB page transfer to or from
	// the paging device, for the swap experiments.
	DiskPageIO int

	// ShootdownIPI is the initiator-side cost of dispatching one TLB
	// shootdown IPI to a remote processor: composing the purge request
	// and ringing the remote doorbell (multicore systems only; a
	// uniprocessor never charges it).
	ShootdownIPI int
	// ShootdownAck is the remote processor's cost per received
	// shootdown IPI: trap entry, the purge itself, acknowledge
	// (multicore systems only).
	ShootdownAck int
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		TrapEntryExit:    24,
		TLBInsert:        6,
		ProbeCompute:     6,
		PageFaultService: 400,
		ZeroFillPerLine:  4,
		SyscallOverhead:  300,
		FlushPerLine:     10,
		RemapPerPage:     145,
		PageCopy:         11400,
		Boot:             2_000_000,
		ForkExec:         300_000,
		Exit:             100_000,
		TimerPeriod:      2_400_000,
		TimerHandler:     500,
		ContextSwitch:    2_000,
		DiskPageIO:       2_000_000, // ~8 ms at 240 MHz
		ShootdownIPI:     150,
		ShootdownAck:     250,
	}
}

// Kernel tracks kernel-side accounting: cycles charged by category and
// process/timer bookkeeping.
type Kernel struct {
	Costs Costs

	// Cycles spent in each kernel activity, for reporting.
	BootCycles  stats.Cycles
	ProcCycles  stats.Cycles
	TimerCycles stats.Cycles
	TimerTicks  uint64
	Syscalls    uint64

	// OnTick, when non-nil, fires once per timer interrupt. The
	// invariant harness hangs its periodic whole-machine audit here.
	// Hooks run inside the CPU's cycle-charging path, so they must be
	// read-only with respect to simulator state.
	OnTick func()

	// sinceTick counts the cycles since the last timer interrupt, and
	// nextTick is the count at which the next one fires: TimerPeriod,
	// or never when the timer is disabled. nextTick is zero until the
	// first charge, which takes the slow path and derives it from
	// Costs; Costs must not change after that.
	sinceTick int
	nextTick  int
}

// New returns a kernel with the given cost model.
func New(c Costs) *Kernel { return &Kernel{Costs: c} }

// Boot charges kernel initialization and returns its cycle cost.
func (k *Kernel) Boot() stats.Cycles {
	c := stats.Cycles(k.Costs.Boot)
	k.BootCycles += c
	return c
}

// StartProcess charges fork+exec and returns its cycle cost.
func (k *Kernel) StartProcess() stats.Cycles {
	c := stats.Cycles(k.Costs.ForkExec)
	k.ProcCycles += c
	return c
}

// ExitProcess charges process teardown and returns its cycle cost.
func (k *Kernel) ExitProcess() stats.Cycles {
	c := stats.Cycles(k.Costs.Exit)
	k.ProcCycles += c
	return c
}

// SyscallEntry charges one syscall dispatch and returns its cycle cost.
func (k *Kernel) SyscallEntry() stats.Cycles {
	k.Syscalls++
	return stats.Cycles(k.Costs.SyscallOverhead)
}

// Advance notifies the kernel that n CPU cycles have elapsed and returns
// the cycles consumed by any timer interrupts that fired in the span.
// Between ticks it is an add and a compare, inlined into its callers.
func (k *Kernel) Advance(n stats.Cycles) stats.Cycles {
	if k.Elapse(n) {
		return k.tick()
	}
	return 0
}

// Elapse counts n elapsed cycles toward the next timer interrupt without
// firing it, and reports whether one is due. A caller that sees true
// fires it with Advance(0) before charging anything else. This lets the
// CPU fold the timer check into the one branch its per-instruction
// accounting takes.
func (k *Kernel) Elapse(n stats.Cycles) bool {
	k.sinceTick += int(n)
	return k.sinceTick >= k.nextTick
}

// tick fires every timer interrupt due and returns their cycles.
func (k *Kernel) tick() stats.Cycles {
	p := k.Costs.TimerPeriod
	if p <= 0 {
		k.sinceTick, k.nextTick = 0, math.MaxInt
		return 0
	}
	k.nextTick = p
	var spent stats.Cycles
	for k.sinceTick >= p {
		k.sinceTick -= p
		k.TimerTicks++
		spent += stats.Cycles(k.Costs.TimerHandler)
		if k.OnTick != nil {
			k.OnTick()
		}
	}
	k.TimerCycles += spent
	return spent
}
