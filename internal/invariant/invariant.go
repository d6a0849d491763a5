// Package invariant is the runtime correctness harness: a catalogue of
// machine-wide invariants walkable from an assembled sim.System, plus a
// Checker that audits them at safe points during a run (timer ticks, OS
// mutation hooks, run end).
//
// The invariants formalize the paper's correctness story (DESIGN.md
// §12): shadow regions stay class-aligned and disjoint inside the
// shadow space (Figure 2); shadow-table ref/dirty/fault bits stay
// consistent with validity; every valid shadow page is backed by a
// live, unaliased DRAM frame; the translation backend's cached state
// (whatever the scheme caches) never disagrees with the in-DRAM table;
// every processor-TLB entry is backed by a live hashed-
// page-table entry; the hashed page table's and the processor TLB's
// internal bookkeeping stays sound; and the CPU's page memos re-derive
// to the same translations the authoritative structures give.
//
// Checking is off unless requested: the -check flag (EnableGlobalChecks
// via internal/cmdutil) attaches a panicking checker to every system
// assembled, and the invariants build tag additionally compiles in a
// per-access differential probe (internal/check gates the hot-path call
// sites to a constant-false branch by default).
package invariant

import (
	"fmt"
	"sync"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/check"
	"shadowtlb/internal/core"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/vm"
)

// Violation is one detected invariant breach.
type Violation struct {
	Rule   string // catalogue name, e.g. "shadow.partition"
	Detail string
}

// String formats the violation for reports.
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Check runs every invariant in the catalogue against the system's
// current state and returns the violations found (nil when clean). It
// is read-only and safe to call at any point where no VM mutation is
// mid-flight.
func Check(s *sim.System) []Violation {
	var vs []Violation
	vs = append(vs, auditShadowPartition(s.VM, s.Cfg.ShadowSpace)...)
	vs = append(vs, auditShadowTable(s.VM, s.Frames, s.Cfg.DRAMBytes)...)
	vs = append(vs, auditTranslator(s.Translator)...)
	vs = append(vs, auditTLBBacked("tlb.backed", s.CPUTLB, s.CPU.VM, s.Frames)...)
	vs = append(vs, checkTLBInternal(s.CPUTLB)...)
	vs = append(vs, checkPTableInternal(s)...)
	vs = append(vs, auditMemo("cpu.memo", s.CPU)...)
	return vs
}

// CheckSMP runs the catalogue against a multicore system: the shared
// substrate — shadow partition and table, translation backend, every
// address space's hashed page table — is audited once, then each
// processor's private state is audited under the multicore rules, and
// its TLB's bookkeeping under "tlb.internal":
//
//   - "smp.memo": CPU i's page memos must re-derive to the same
//     translations its scheduled address space's authoritative
//     structures give — after a shootdown, no CPU may keep memoized
//     state the flush should have cleared.
//   - "shootdown.ipi": CPU i's front TLB must hold only entries its
//     scheduled page table can produce. A remap rewrites the PTE class
//     and target, so an entry surviving a completed IPI turns up here
//     as unbacked or mistargeted.
func CheckSMP(s *sim.SMPSystem) []Violation {
	var vs []Violation
	vs = append(vs, auditShadowPartition(s.VMs[0], s.Cfg.ShadowSpace)...)
	vs = append(vs, auditShadowTable(s.VMs[0], s.Frames, s.Cfg.DRAMBytes)...)
	vs = append(vs, auditTranslator(s.Translator)...)
	for i, v := range s.VMs {
		if err := v.HPT.CheckConsistent(); err != nil {
			vs = append(vs, Violation{"ptable.internal",
				fmt.Sprintf("address space %d: %v", i, err)})
		}
	}
	for i, c := range s.CPUs {
		pre := fmt.Sprintf("cpu %d: ", i)
		for _, v := range auditTLBBacked("shootdown.ipi", c.TLB, c.VM, s.Frames) {
			v.Detail = pre + v.Detail
			vs = append(vs, v)
		}
		for _, v := range checkTLBInternal(c.TLB) {
			v.Detail = pre + v.Detail
			vs = append(vs, v)
		}
		for _, v := range auditMemo("smp.memo", c) {
			v.Detail = pre + v.Detail
			vs = append(vs, v)
		}
	}
	return vs
}

// auditShadowPartition audits the shadow allocator's regions: every
// tracked extent (free or live) must be aligned to its own class size,
// lie inside the shadow space, and overlap no other extent — the
// Figure 2 partition discipline.
func auditShadowPartition(v *vm.VM, space core.ShadowSpace) []Violation {
	lister, ok := v.ShadowAlloc.(core.ExtentLister)
	if !ok {
		return nil
	}
	var vs []Violation
	exts := lister.Extents()
	var prevEnd arch.PAddr
	for i, e := range exts {
		sz := e.Class.Bytes()
		if uint64(e.Base)%sz != 0 {
			vs = append(vs, Violation{"shadow.partition",
				fmt.Sprintf("region %v (%v) not aligned to its size", e.Base, e.Class)})
		}
		if e.Base < space.Base || uint64(e.Base-space.Base)+sz > space.Size {
			vs = append(vs, Violation{"shadow.partition",
				fmt.Sprintf("region %v (%v) outside shadow space [%v,+%d)", e.Base, e.Class, space.Base, space.Size)})
		}
		if i > 0 && e.Base < prevEnd {
			vs = append(vs, Violation{"shadow.partition",
				fmt.Sprintf("region %v (%v) overlaps previous region ending at %v", e.Base, e.Class, prevEnd)})
		}
		prevEnd = e.Base + arch.PAddr(sz)
	}
	return vs
}

// auditShadowTable audits every shadow-table entry: Fault implies
// invalid; Ref or Dirty implies valid (the MTLB only maintains the bits
// on translatable pages); and each valid entry's frame must be live in
// the frame allocator, inside installed DRAM, and claimed by no other
// valid shadow page ("ref/dirty ⊆ mapped" plus frame uniqueness).
func auditShadowTable(v *vm.VM, frames *mem.FrameAlloc, dramBytes uint64) []Violation {
	st := v.STable
	if st == nil {
		return nil
	}
	space := st.Space()
	var vs []Violation
	seen := make(map[uint64]arch.PAddr)
	for i := uint64(0); i < space.Pages(); i++ {
		spa := space.PageAddr(i)
		ent := st.Get(spa)
		if ent.Fault && ent.Valid {
			vs = append(vs, Violation{"shadow.bits",
				fmt.Sprintf("shadow page %v has Fault and Valid set together", spa)})
		}
		if (ent.Ref || ent.Dirty) && !ent.Valid {
			vs = append(vs, Violation{"shadow.bits",
				fmt.Sprintf("shadow page %v has ref/dirty bits but no valid mapping", spa)})
		}
		if !ent.Valid {
			continue
		}
		if !frames.InUse(ent.PFN) {
			vs = append(vs, Violation{"shadow.backing",
				fmt.Sprintf("shadow page %v maps frame %#x which is not allocated", spa, ent.PFN)})
		}
		if pa := arch.FrameToPAddr(ent.PFN); uint64(pa)+arch.PageSize > dramBytes {
			vs = append(vs, Violation{"shadow.backing",
				fmt.Sprintf("shadow page %v maps frame %#x beyond installed DRAM", spa, ent.PFN)})
		}
		if prev, dup := seen[ent.PFN]; dup {
			vs = append(vs, Violation{"shadow.backing",
				fmt.Sprintf("frame %#x backs both shadow pages %v and %v", ent.PFN, prev, spa)})
		}
		seen[ent.PFN] = spa
	}
	return vs
}

// auditTranslator audits the translation backend's cached state
// against the in-DRAM table: every page the backend would translate
// without reading the table must agree with the current table entry —
// the OS purges the backend through the control interface whenever it
// changes a mapping, so a stale cached translation is a missed
// shootdown. The check is scheme-agnostic: VisitCached enumerates
// whatever the backend caches (set-associative entries, coalesced
// ranges page by page, cache-resident spill-directory entries) as
// (shadow page, real page) pairs, and each pair is audited the same
// way.
func auditTranslator(tr core.Translator) []Violation {
	if tr == nil {
		return nil
	}
	var vs []Violation
	scheme := tr.Scheme()
	st := tr.Table()
	tr.VisitCached(func(shadowBase, realBase arch.PAddr) {
		ent := st.Get(shadowBase)
		if !ent.Valid {
			vs = append(vs, Violation{"translator.coherent",
				fmt.Sprintf("%s backend caches %v but the table entry is invalid", scheme, shadowBase)})
			return
		}
		if want := arch.FrameToPAddr(ent.PFN); want != realBase {
			vs = append(vs, Violation{"translator.coherent",
				fmt.Sprintf("%s backend caches %v -> %v, table says %v", scheme, shadowBase, realBase, want)})
		}
	})
	return vs
}

// auditTLBBacked audits a processor TLB against its scheduled address
// space's hashed page table: every valid, non-wired entry must match a
// live PTE of the same class and target. The HPT is the authoritative
// mapping store; a TLB entry it cannot produce is a missed shootdown.
// Superpage entries must additionally target shadow space, and 4 KB
// entries a live DRAM frame. The rule parameter names the violation:
// "tlb.backed" on the uniprocessor, "shootdown.ipi" per multicore CPU.
func auditTLBBacked(rule string, t *tlb.TLB, v *vm.VM, frames *mem.FrameAlloc) []Violation {
	hpt := v.HPT
	var vs []Violation
	t.VisitValid(func(e tlb.Entry) {
		if e.Wired {
			return
		}
		pte := hpt.LookupFast(arch.VAddr(e.Tag))
		if pte == nil || uint64(pte.VBase) != e.Tag || pte.Class != e.Class {
			vs = append(vs, Violation{rule,
				fmt.Sprintf("TLB entry %#x (%v) has no matching page-table entry", e.Tag, e.Class)})
			return
		}
		if uint64(pte.Target) != e.Target {
			vs = append(vs, Violation{rule,
				fmt.Sprintf("TLB entry %#x (%v) targets %#x, page table says %v", e.Tag, e.Class, e.Target, pte.Target)})
			return
		}
		target := arch.PAddr(e.Target)
		if e.Class == arch.Page4K {
			if v.STable != nil && v.STable.Space().Contains(target) {
				vs = append(vs, Violation{rule,
					fmt.Sprintf("4KB TLB entry %#x targets shadow address %v", e.Tag, target)})
			} else if !frames.InUse(target.FrameNum()) {
				vs = append(vs, Violation{rule,
					fmt.Sprintf("4KB TLB entry %#x targets unallocated frame %#x", e.Tag, target.FrameNum())})
			}
		} else if v.STable == nil || !v.STable.Space().Contains(target) {
			vs = append(vs, Violation{rule,
				fmt.Sprintf("superpage TLB entry %#x (%v) targets %v outside shadow space", e.Tag, e.Class, target)})
		}
	})
	return vs
}

// checkTLBInternal audits a processor TLB's own bookkeeping (index,
// per-class counts, slot bitmaps, overlap count) via the TLB's
// self-check, under the rule "tlb.internal".
func checkTLBInternal(t *tlb.TLB) []Violation {
	if err := t.CheckConsistent(); err != nil {
		return []Violation{{"tlb.internal", err.Error()}}
	}
	return nil
}

// checkPTableInternal audits the hashed page table's own bookkeeping
// (slot-state counters, alignment, probe reachability) via the table's
// self-check.
func checkPTableInternal(s *sim.System) []Violation {
	var vs []Violation
	if err := s.CPU.VM.HPT.CheckConsistent(); err != nil {
		vs = append(vs, Violation{"ptable.internal", err.Error()})
	}
	if s.VM != s.CPU.VM {
		// Multiprogrammed system: audit process 0's table too.
		if err := s.VM.HPT.CheckConsistent(); err != nil {
			vs = append(vs, Violation{"ptable.internal", err.Error()})
		}
	}
	return vs
}

// auditMemo audits a CPU's page memos: every slot whose TLB claim still
// holds at the current shadow generation must re-derive to the same
// translation chain ("cache tags consistent after FlushMemo" — a flush
// leaves the fast-path memo empty, and anything surviving the claim and
// generation checks must still be true).
// The rule parameter names the violation: "cpu.memo" on the
// uniprocessor, "smp.memo" per multicore CPU.
func auditMemo(rule string, c *cpu.CPU) []Violation {
	var vs []Violation
	for _, d := range c.MemoDiag() {
		vs = append(vs, Violation{rule, d})
	}
	return vs
}

// Options configures an attached Checker.
type Options struct {
	// Panic makes the checker panic on the first violation instead of
	// recording it — how the -check flag and the global hook run, so a
	// corrupted simulation dies at the audit that caught it.
	Panic bool
}

// Checker audits a system at safe points during a run. Attach (or
// AttachSMP) wires it to the system's hooks; it keeps per-system state
// only, so one checker per system is safe under the runner pool's
// parallelism.
type Checker struct {
	check func() []Violation // full catalogue against the wired system
	opts  Options

	// Passes counts completed clean audit passes.
	Passes uint64
	// AccessChecks counts per-access differential probes (invariants
	// build tag only).
	AccessChecks uint64

	events   uint64 // ticks + op notifications seen
	nextPass uint64 // next event number to audit at
	stride   uint64 // doubling back-off, capped

	violations []Violation
}

// Attach wires a checker to the system's hooks: timer ticks and VM
// operation notifications trigger audits with a doubling back-off
// (events 1, 2, 4, ... then every 64th — fault-heavy runs generate
// thousands of events and a full audit walks the whole shadow table),
// run end always audits, and the CPU's accesses are probed. Existing
// hooks are chained, so a fault injector and a checker coexist on one
// system; the checker runs after the previous hook, auditing the state
// the injector left behind.
func Attach(s *sim.System, opts Options) *Checker {
	c := &Checker{check: func() []Violation { return Check(s) },
		opts: opts, nextPass: 1, stride: 1}

	prevTick := s.Kernel.OnTick
	s.Kernel.OnTick = func() {
		if prevTick != nil {
			prevTick()
		}
		c.event("tick")
	}
	prevOp := s.VM.OnOp
	s.VM.OnOp = func(op string) {
		if prevOp != nil {
			prevOp(op)
		}
		c.event("op:" + op)
	}
	prevEnd := s.OnRunEnd
	s.OnRunEnd = func() {
		if prevEnd != nil {
			prevEnd()
		}
		c.audit("run-end")
	}
	c.probe(s.CPU)
	return c
}

// AttachSMP wires a checker to a multicore system's hooks: timer ticks,
// every address space's VM operation notifications, and executor round
// boundaries trigger CheckSMP audits with the same doubling back-off as
// Attach, run end always audits, and every CPU's accesses are probed.
// Round boundaries are the multicore-specific safe point — every CPU's
// thread is parked at the end of its slot, so no mutation (including a
// mid-IPI shootdown) is in flight. Existing hooks are chained, so a
// multicore fault injector and a checker coexist; the checker audits
// the state the injector left.
func AttachSMP(s *sim.SMPSystem, opts Options) *Checker {
	c := &Checker{check: func() []Violation { return CheckSMP(s) },
		opts: opts, nextPass: 1, stride: 1}

	prevTick := s.Kernel.OnTick
	s.Kernel.OnTick = func() {
		if prevTick != nil {
			prevTick()
		}
		c.event("tick")
	}
	for i, v := range s.VMs {
		i, prevOp := i, v.OnOp
		v.OnOp = func(op string) {
			if prevOp != nil {
				prevOp(op)
			}
			c.event(fmt.Sprintf("op:%s(vm %d)", op, i))
		}
	}
	prevQ := s.OnQuantum
	s.OnQuantum = func(round uint64) {
		if prevQ != nil {
			prevQ(round)
		}
		c.event("quantum")
	}
	prevEnd := s.OnRunEnd
	s.OnRunEnd = func() {
		if prevEnd != nil {
			prevEnd()
		}
		c.audit("run-end")
	}
	for _, p := range s.CPUs {
		c.probe(p)
	}
	return c
}

// probe chains the per-access differential probe onto processor p
// (invariants build tag only).
func (c *Checker) probe(p *cpu.CPU) {
	if !check.Enabled {
		return
	}
	prev := p.OnAccessCheck
	p.OnAccessCheck = func(va arch.VAddr, real arch.PAddr) {
		if prev != nil {
			prev(va, real)
		}
		c.accessCheck(p, va, real)
	}
}

// Violations returns the breaches recorded so far (record mode).
func (c *Checker) Violations() []Violation { return c.violations }

// event counts one audit trigger and runs a full pass when the back-off
// schedule says so.
func (c *Checker) event(origin string) {
	c.events++
	if c.events < c.nextPass {
		return
	}
	if c.stride < 64 {
		c.stride *= 2
	}
	c.nextPass = c.events + c.stride
	c.audit(origin)
}

// audit runs the full catalogue once and reports the outcome.
func (c *Checker) audit(origin string) {
	vs := c.check()
	if len(vs) == 0 {
		c.Passes++
		return
	}
	c.violations = append(c.violations, vs...)
	if c.opts.Panic {
		panic(fmt.Sprintf("invariant violated at %s: %s", origin, vs[0]))
	}
}

// accessCheck is the per-access differential probe (invariants build
// tag only): the real address processor p's access path resolved must
// equal what the authoritative page table + shadow table of p's
// scheduled address space give for the same virtual address.
func (c *Checker) accessCheck(p *cpu.CPU, va arch.VAddr, real arch.PAddr) {
	c.AccessChecks++
	v := p.VM
	pte := v.HPT.LookupFast(va)
	if pte == nil {
		c.reportAccess(va, real, "no page-table entry covers the address")
		return
	}
	want, err := v.TranslateData(pte.Translate(va))
	if err != nil {
		c.reportAccess(va, real, fmt.Sprintf("authoritative translation faults: %v", err))
		return
	}
	if want != real {
		c.reportAccess(va, real, fmt.Sprintf("authoritative translation gives %v", want))
	}
}

// reportAccess records or raises one differential-probe violation.
func (c *Checker) reportAccess(va arch.VAddr, real arch.PAddr, detail string) {
	v := Violation{"access.real", fmt.Sprintf("access %v resolved to %v: %s", va, real, detail)}
	c.violations = append(c.violations, v)
	if c.opts.Panic {
		panic("invariant violated: " + v.String())
	}
}

var enableOnce sync.Once

// EnableGlobalChecks attaches a panicking checker to every system
// assembled from now on (the -check flag) — uniprocessor and multicore
// alike, exactly one per machine. It chains any hooks already installed
// and is idempotent.
func EnableGlobalChecks() {
	enableOnce.Do(func() {
		prev := sim.OnNewSystem
		sim.OnNewSystem = func(s *sim.System) {
			if prev != nil {
				prev(s)
			}
			Attach(s, Options{Panic: true})
		}
		prevSMP := sim.OnNewSMPSystem
		sim.OnNewSMPSystem = func(s *sim.SMPSystem) {
			if prevSMP != nil {
				prevSMP(s)
			}
			AttachSMP(s, Options{Panic: true})
		}
	})
}
