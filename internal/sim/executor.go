package sim

import (
	"shadowtlb/internal/arch"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
)

// The multicore executor (DESIGN §17).
//
// Each simulated CPU's thread runs its workload code on a goroutine of
// its own (thread.go), directly against the CPU's timing model through
// a cpuEnv. The executor's round loop gives each running CPU one slot
// per round, in a deterministic arbitration order; in its slot a thread
// runs until it has issued Quantum entries, performed a control
// operation (allocation, sbrk, remap, process begin or end), reached a
// barrier or ended. Bus contention and barrier alignment are settled
// between rounds. Only one goroutine runs at any moment, so results are
// bit-identical at any GOMAXPROCS.

// cpuEnv is the workload.Env a CPU's thread runs on. It counts the
// slot's entries: each Load or Store is one, and a Step opens one only
// when the slot has none open yet or the open entry's folded steps
// would pass 2³¹. The count decides where the thread hands the machine
// back, so it is part of the timing model.
type cpuEnv struct {
	c       *cpu.CPU
	t       *thread
	q       int    // entries per slot
	entries int    // entries in the current slot
	steps   uint64 // steps folded into the slot's open entry
	barrier bool   // the thread is parked at a barrier
}

var _ workload.Barrierer = (*cpuEnv)(nil)

// entry counts one more entry, opened with steps folded in, and ends
// the slot when it is full.
func (e *cpuEnv) entry(steps uint64) {
	e.steps = steps
	if e.entries++; e.entries >= e.q {
		e.endSlot()
	}
}

// endSlot hands the machine back until the thread's next slot.
func (e *cpuEnv) endSlot() {
	e.entries = 0
	e.t.yield()
}

func (e *cpuEnv) Load(va arch.VAddr, size int) uint64 {
	v := e.c.Load(va, size)
	e.entry(0)
	return v
}

func (e *cpuEnv) Store(va arch.VAddr, size int, val uint64) {
	e.c.Store(va, size, val)
	e.entry(0)
}

func (e *cpuEnv) Step(n int) {
	if n <= 0 {
		return
	}
	e.c.Step(n)
	if s := e.steps + uint64(n); e.entries > 0 && s <= 1<<31 {
		e.steps = s
		return
	}
	e.entry(uint64(n))
}

func (e *cpuEnv) Sbrk(n uint64) arch.VAddr {
	va := e.c.Sbrk(n)
	e.endSlot()
	return va
}

func (e *cpuEnv) Remap(base arch.VAddr, size uint64) bool {
	ok := e.c.Remap(base, size)
	e.endSlot()
	return ok
}

func (e *cpuEnv) AllocRegion(name string, size uint64) arch.VAddr {
	va := e.c.AllocRegion(name, size)
	e.endSlot()
	return va
}

func (e *cpuEnv) AllocAligned(name string, size, align, offset uint64) arch.VAddr {
	va := e.c.AllocAligned(name, size, align, offset)
	e.endSlot()
	return va
}

// Barrier parks the thread until every unfinished thread has reached a
// barrier.
func (e *cpuEnv) Barrier() {
	e.barrier = true
	e.endSlot()
	e.barrier = false
}

// startProcess charges the fork/exec on c and gives v the modified sbrk
// that creates superpages when w relies on it (vortex and gcc, §3.1) and
// v has shadow memory.
func startProcess(c *cpu.CPU, v *vm.VM, w workload.Workload) {
	c.Charge(c.K.StartProcess(), cpu.KernelTime)
	if w.SbrkSuperpages() && v.HasShadow() {
		sc := v.SbrkConfigNow()
		sc.Superpages = true
		v.ConfigureSbrk(sc)
	}
}

// execute boots the machine, starts one thread per CPU and runs rounds
// until every thread has ended.
func (s *SMPSystem) execute() {
	n := s.N
	q := s.Cfg.SMP.Quantum
	if q <= 0 {
		q = DefaultSMPQuantum
	}

	s.cur = 0
	s.CPUs[0].Charge(s.Kernel.Boot(), cpu.KernelTime)

	var ts threadSet
	defer ts.stop()
	envs := make([]*cpuEnv, n)
	for i := range envs {
		envs[i] = &cpuEnv{c: s.CPUs[i], q: q}
	}

	if s.Shared {
		// One process, one thread per CPU: fork/exec once on the boot
		// processor, then a dispatch on each further CPU.
		startProcess(s.CPUs[0], s.VMs[0], s.w)
		for i := 1; i < n; i++ {
			s.cur = i
			s.CPUs[i].Charge(stats.Cycles(s.Kernel.Costs.ContextSwitch), cpu.KernelTime)
		}
		p := s.w.(workload.Parallel)
		for i, e := range envs {
			e.t = ts.start(func() { p.RunThread(e, i, n) })
		}
	} else {
		// Each CPU runs its members back to back, each in its own
		// address space. Process begin and end are control operations,
		// so each ends a slot.
		for i, e := range envs {
			th := s.threads[i]
			e.t = ts.start(func() {
				for k, m := range th.members {
					if v := th.vms[k]; e.c.VM != v {
						e.c.SwitchVM(v)
					}
					startProcess(e.c, th.vms[k], m)
					e.endSlot()
					m.Run(e)
					e.c.Charge(s.Kernel.ExitProcess(), cpu.KernelTime)
					e.endSlot()
				}
			})
		}
	}

	s.rounds(envs)

	if s.Shared {
		s.cur = 0
		s.CPUs[0].Charge(s.Kernel.ExitProcess(), cpu.KernelTime)
	}
}

// Thread states in the round loop.
const (
	stRunning = iota
	stBarrier
	stDone
)

// rounds gives each running CPU one slot per round, in an arbitration
// order rotated deterministically per round, followed by bus contention
// charges and barrier bookkeeping.
func (s *SMPSystem) rounds(envs []*cpuEnv) {
	n := s.N
	state := make([]int, n)
	busDelta := make([]uint64, n)  // shared-bus busy cycles during each slot
	workDelta := make([]uint64, n) // CPU cycles charged during each slot
	live := n
	cpb := s.Cfg.Bus.CPUCyclesPerBusCycle
	if cpb <= 0 {
		cpb = 1
	}

	var round uint64
	for live > 0 {
		// Arbitration order: plain rotation, or a seeded pseudo-random
		// rotation when fuzzing schedules.
		off := int(round % uint64(n))
		if seed := s.Cfg.SMP.ArbSeed; seed != 0 {
			off = int(splitmix64(seed^round) % uint64(n))
		}

		for i := range busDelta {
			busDelta[i], workDelta[i] = 0, 0
		}
		for k := 0; k < n; k++ {
			i := (off + k) % n
			if state[i] != stRunning {
				continue
			}
			e := envs[i]
			s.cur = i
			b0 := s.Bus.BusyBusCycle
			w0 := e.c.Breakdown.Total()
			e.t.run()
			busDelta[i] = s.Bus.BusyBusCycle - b0
			workDelta[i] = uint64(e.c.Breakdown.Total() - w0)
			switch {
			case e.t.done:
				state[i] = stDone
				live--
			case e.barrier:
				state[i] = stBarrier
			}
		}

		// Bus contention: each CPU's wait grows with the bus demand the
		// *other* CPUs placed in the same round — overlap probability
		// demand_i x demand_other / capacity, capped at fully serialized
		// (a CPU can never wait longer than everyone else's traffic).
		// Integer arithmetic, slot-order independent, deterministic.
		var demand, maxWork uint64
		for i := 0; i < n; i++ {
			demand += busDelta[i]
			if workDelta[i] > maxWork {
				maxWork = workDelta[i]
			}
		}
		if demand > 0 && maxWork > 0 {
			capacity := maxWork / uint64(cpb)
			if capacity == 0 {
				capacity = 1
			}
			for i := 0; i < n; i++ {
				other := demand - busDelta[i]
				if busDelta[i] == 0 || other == 0 {
					continue
				}
				extra := busDelta[i] * other / capacity
				if extra > other {
					extra = other
				}
				if extra == 0 {
					continue
				}
				stall := stats.Cycles(s.Bus.ToCPU(int(extra)))
				s.cur = i
				s.CPUs[i].Charge(stall, cpu.Memory)
				s.BusStall[i] += stall
			}
		}

		// Barrier release: when every unfinished thread has arrived,
		// align the waiters' clocks to the latest arrival; they run
		// again from the next round.
		anyB, allB := false, true
		for i := 0; i < n; i++ {
			if state[i] == stBarrier {
				anyB = true
			} else if state[i] == stRunning {
				allB = false
			}
		}
		if anyB && allB {
			var tmax uint64
			for i := 0; i < n; i++ {
				if state[i] == stBarrier {
					if cl := s.clock(i); cl > tmax {
						tmax = cl
					}
				}
			}
			for i := 0; i < n; i++ {
				if state[i] != stBarrier {
					continue
				}
				if cl := s.clock(i); cl < tmax {
					s.Idle[i] += stats.Cycles(tmax - cl)
				}
				state[i] = stRunning
			}
		}

		if s.OnQuantum != nil {
			s.OnQuantum(round)
		}
		round++
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash for
// deterministic arbitration rotation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
