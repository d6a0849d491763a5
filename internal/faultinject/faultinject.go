// Package faultinject perturbs a simulated system (and the daemon's
// result cache) with deterministic, seedable fault plans, so the
// invariant harness (internal/invariant) can audit the machine under
// hostile schedules instead of only the happy path.
//
// A Plan is derived entirely from a uint64 seed: the same seed always
// produces the same perturbation schedule, so any failure a chaos run
// reports is reproducible from its seed alone. Machine-side faults:
// forced page-outs under synthetic memory pressure (a superpage is
// evicted out from under the running process, so its next access takes
// the MTLB fault-bit path), shootdown storms (every translation cache
// purged at once), purges in the middle of multi-superpage remaps, and
// randomized DRAM fill delays at the MMC. All injected faults are
// semantically invisible — they purge caches, drop residency, or add
// latency, never corrupt state — so every machine invariant must still
// hold under any plan; timing fidelity is explicitly sacrificed (the
// injector discards the kernel cycles its forced operations would
// charge, since this is a correctness harness, not a cost model).
package faultinject

import (
	"fmt"

	"shadowtlb/internal/sim"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/vm"
)

// rng is the repo's xorshift64 generator (see mem/alloc.go); the
// injector cannot use math/rand because plans must be stable across Go
// releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // xorshift sticks at zero
	}
	r := rng{s: seed}
	for i := 0; i < 4; i++ { // decorrelate adjacent seeds
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// injector is what Injector and SMPInjector share: the plan's random
// stream, the fault channels both machines have — forced page-outs and
// MMC fill delays — and the fault observer.
type injector struct {
	rng                   rng
	delayPct, delayCycles int // fill-delay chance (percent) and size

	SwapOuts   uint64 // forced page-outs that evicted ≥ 1 page
	FillDelays uint64 // delayed MMC line fills

	// OnFault, when set, observes every delivered fault by kind
	// ("swap_out", "fill_delay", and the machine's own: "shootdown" and
	// "mid_remap_purge", or "storm") the moment it is injected — the
	// chaos harness annotates each as a span event so a trace shows
	// exactly where plans fired. Set before the run; called from the
	// simulation goroutine.
	OnFault func(kind string)
}

// fault counts one delivered fault and notifies the observer.
func (inj *injector) fault(counter *uint64, kind string) {
	*counter++
	if inj.OnFault != nil {
		inj.OnFault(kind)
	}
}

// fillDelay is the MMC hook: a random fraction of line fills take extra
// cycles, modelling contended or refreshing DRAM.
func (inj *injector) fillDelay() int {
	if inj.rng.intn(100) >= inj.delayPct {
		return 0
	}
	inj.fault(&inj.FillDelays, "fill_delay")
	return inj.delayCycles
}

// forceSwapOut pages out a random superpage of address space v,
// simulating the page-out daemon striking under memory pressure the
// workload didn't create. The next access to the superpage takes the
// MTLB fault-bit path and pages back in at 4 KB grain; on a shared
// multicore address space the remap path broadcasts real shootdown
// IPIs to every other CPU. Kernel cycles are discarded (correctness
// harness, not a cost model).
func (inj *injector) forceSwapOut(v *vm.VM) {
	if !v.HasShadow() {
		return
	}
	sps := v.Superpages()
	if len(sps) == 0 {
		return
	}
	sp := sps[inj.rng.intn(len(sps))]
	res, err := v.SwapOutSuperpage(sp, vm.PageGrain)
	if err == nil && res.PagesExamined > 0 {
		inj.fault(&inj.SwapOuts, "swap_out")
	}
}

// Plan is one deterministic fault schedule. Machine-side fields drive
// Attach; the Cache* fields parameterize a ChaosCache for the daemon's
// result-cache path. Zero values disable the corresponding fault.
type Plan struct {
	Seed uint64

	// Quantum is the injection period in charged CPU cycles; each
	// elapsed quantum is one opportunity to inject.
	Quantum stats.Cycles
	// SwapOutEvery forces a page-out of a random superpage every Nth
	// quantum (shadow systems only).
	SwapOutEvery int
	// ShootdownEvery purges every translation cache (CPU TLB, micro
	// ITLB, MTLB, fast-path memo) every Nth quantum.
	ShootdownEvery int
	// FillDelayPct is the percent chance each MMC line fill is delayed
	// by FillDelayCycles extra cycles.
	FillDelayPct    int
	FillDelayCycles int
	// MidRemapPurge purges all translation caches between the
	// superpages of a multi-superpage remap, while the remap loop is
	// still running.
	MidRemapPurge bool

	// Serve-side knobs, consumed by ChaosCache.
	CachePanicEvery int // every Nth led simulation panics
	CacheDelayEvery int // every Nth Do stalls before proceeding
	CacheEvictEvery int // every Nth Do evicts the LRU result after
}

// New derives the plan for a seed. Every knob is drawn from the ranges
// the chaos tool exercises; the machine side is always fully armed.
func New(seed uint64) Plan {
	r := newRNG(seed)
	return Plan{
		Seed:            seed,
		Quantum:         stats.Cycles(r.between(30_000, 100_000)),
		SwapOutEvery:    r.between(2, 5),
		ShootdownEvery:  r.between(1, 4),
		FillDelayPct:    r.between(10, 50),
		FillDelayCycles: r.between(4, 32),
		MidRemapPurge:   r.intn(2) == 0,
		CachePanicEvery: r.between(3, 6),
		CacheDelayEvery: r.between(2, 5),
		CacheEvictEvery: r.between(2, 4),
	}
}

// String summarizes the machine-side schedule for reports.
func (p Plan) String() string {
	return fmt.Sprintf("seed=%#x quantum=%d swap-out/%d shootdown/%d fill-delay=%d%%×%d mid-remap=%v",
		p.Seed, p.Quantum, p.SwapOutEvery, p.ShootdownEvery,
		p.FillDelayPct, p.FillDelayCycles, p.MidRemapPurge)
}

// Injector is a plan attached to one system. Its counters report what
// was actually injected, so a chaos run can prove its plans fired.
type Injector struct {
	injector
	Plan Plan

	sys    *sim.System
	quanta uint64

	Shootdowns     uint64 // full translation-cache purges
	MidRemapPurges uint64 // purges inside a remap loop
}

// Attach wires the plan into a freshly assembled system. It must run
// before the invariant checker's Attach so that audits observe the
// state each fault leaves behind. The scheduling-quantum hook is taken
// only when free (multiprogrammed systems own it); the VM operation
// hook is chained.
func Attach(s *sim.System, p Plan) *Injector {
	inj := &Injector{Plan: p, sys: s, injector: injector{
		rng:         newRNG(p.Seed ^ 0xD1B54A32D192ED03),
		delayPct:    p.FillDelayPct,
		delayCycles: p.FillDelayCycles,
	}}

	if p.Quantum > 0 && s.CPU.OnQuantum == nil {
		s.CPU.Quantum = p.Quantum
		s.CPU.OnQuantum = inj.onQuantum
	}
	if p.FillDelayPct > 0 {
		s.MMC.FillDelay = inj.fillDelay
	}
	if p.MidRemapPurge {
		prev := s.VM.OnOp
		s.VM.OnOp = func(op string) {
			if prev != nil {
				prev(op)
			}
			if op == "remap.superpage" {
				inj.fault(&inj.MidRemapPurges, "mid_remap_purge")
				inj.purgeAll()
			}
		}
	}
	return inj
}

// Injected reports the total faults delivered across all channels.
func (inj *Injector) Injected() uint64 {
	return inj.SwapOuts + inj.Shootdowns + inj.FillDelays + inj.MidRemapPurges
}

// onQuantum fires at an instruction boundary every plan quantum — the
// one point where mutating injection is safe (no translation or kernel
// operation is mid-flight).
func (inj *Injector) onQuantum() {
	inj.quanta++
	p := inj.Plan
	if p.ShootdownEvery > 0 && inj.quanta%uint64(p.ShootdownEvery) == 0 {
		inj.fault(&inj.Shootdowns, "shootdown")
		inj.purgeAll()
	}
	if p.SwapOutEvery > 0 && inj.quanta%uint64(p.SwapOutEvery) == 0 {
		inj.forceSwapOut(inj.sys.VM)
	}
}

// purgeAll drops every cached translation at once — the worst-case
// shootdown. Purges are semantically invisible: every dropped entry is
// re-derivable from the page and shadow tables.
func (inj *Injector) purgeAll() {
	s := inj.sys
	if s.Translator != nil {
		s.Translator.PurgeAll()
	}
	s.CPUTLB.PurgeAll()
	s.ITLB.Purge()
	s.CPU.FlushMemo()
}

// SMPPlan is one deterministic multicore fault schedule. Storms are the
// multicore-specific fault: at executor round boundaries, a random
// subset of CPUs has its private translation state (front TLB,
// micro-ITLB, fast-path memo) purged at once — the worst-case
// approximation of IPI broadcasts arriving from outside the workload,
// and exactly the state the shootdown.ipi and smp.memo invariants
// audit. As with Plan, every injected fault is semantically invisible.
type SMPPlan struct {
	Seed uint64

	// StormEvery delivers a shootdown storm every Nth executor round.
	StormEvery int
	// StormMaxCPUs bounds how many CPUs one storm strikes (clamped to
	// the machine size; at least one CPU is always struck).
	StormMaxCPUs int
	// StormTranslator additionally purges the shared translation
	// backend's cached state on every storm.
	StormTranslator bool
	// SwapOutEvery forces a page-out of a random superpage of the first
	// address space every Nth storm opportunity (shadow systems only) —
	// on a shared address space this exercises the remap shootdown-IPI
	// path under storm pressure.
	SwapOutEvery int
	// FillDelayPct / FillDelayCycles perturb MMC line fills as in Plan.
	FillDelayPct    int
	FillDelayCycles int
}

// NewSMP derives the multicore plan for a seed; the machine side is
// always fully armed.
func NewSMP(seed uint64) SMPPlan {
	r := newRNG(seed ^ 0xA0761D6478BD642F) // distinct universe from New
	return SMPPlan{
		Seed:            seed,
		StormEvery:      r.between(2, 8),
		StormMaxCPUs:    r.between(1, 8),
		StormTranslator: r.intn(2) == 0,
		SwapOutEvery:    r.between(4, 10),
		FillDelayPct:    r.between(10, 50),
		FillDelayCycles: r.between(4, 32),
	}
}

// String summarizes the schedule for reports.
func (p SMPPlan) String() string {
	return fmt.Sprintf("seed=%#x storm/%d×≤%dcpus(translator=%v) swap-out/%d fill-delay=%d%%×%d",
		p.Seed, p.StormEvery, p.StormMaxCPUs, p.StormTranslator,
		p.SwapOutEvery, p.FillDelayPct, p.FillDelayCycles)
}

// SMPInjector is a multicore plan attached to one SMPSystem.
type SMPInjector struct {
	injector
	Plan SMPPlan

	sys    *sim.SMPSystem
	rounds uint64

	Storms    uint64 // shootdown storms delivered
	CPUPurges uint64 // per-CPU translation purges across all storms
}

// AttachSMP wires the plan into a freshly assembled multicore system.
// It must run before invariant.AttachSMP so audits observe the state
// each fault leaves behind. The executor's round hook is chained; faults
// fire at round boundaries, when every CPU's thread is parked and no
// reference or kernel operation is mid-flight.
func AttachSMP(s *sim.SMPSystem, p SMPPlan) *SMPInjector {
	inj := &SMPInjector{Plan: p, sys: s, injector: injector{
		rng:         newRNG(p.Seed ^ 0xE7037ED1A0B428DB),
		delayPct:    p.FillDelayPct,
		delayCycles: p.FillDelayCycles,
	}}

	prev := s.OnQuantum
	s.OnQuantum = func(round uint64) {
		if prev != nil {
			prev(round)
		}
		inj.onRound()
	}
	if p.FillDelayPct > 0 {
		s.MMC.FillDelay = inj.fillDelay
	}
	return inj
}

// Injected reports the total faults delivered across all channels.
func (inj *SMPInjector) Injected() uint64 {
	return inj.Storms + inj.SwapOuts + inj.FillDelays
}

// onRound fires after each executor round.
func (inj *SMPInjector) onRound() {
	inj.rounds++
	p := inj.Plan
	if p.StormEvery > 0 && inj.rounds%uint64(p.StormEvery) == 0 {
		inj.storm()
	}
	if p.SwapOutEvery > 0 && inj.rounds%uint64(p.SwapOutEvery) == 0 {
		inj.forceSwapOut(inj.sys.VMs[0])
	}
}

// storm purges the private translation state of a random CPU subset —
// every dropped entry is re-derivable from the page and shadow tables,
// so the shootdown.ipi and smp.memo invariants must still hold on every
// struck and unstruck CPU alike.
func (inj *SMPInjector) storm() {
	s := inj.sys
	k := inj.rng.between(1, inj.Plan.StormMaxCPUs)
	if k > s.N {
		k = s.N
	}
	struck := make(map[int]bool, k)
	for len(struck) < k {
		struck[inj.rng.intn(s.N)] = true
	}
	for i := 0; i < s.N; i++ {
		if !struck[i] {
			continue
		}
		c := s.CPUs[i]
		c.TLB.PurgeAll()
		c.ITLB.Purge()
		c.FlushMemo()
		inj.CPUPurges++
	}
	if inj.Plan.StormTranslator && s.Translator != nil {
		s.Translator.PurgeAll()
	}
	inj.fault(&inj.Storms, "storm")
}
