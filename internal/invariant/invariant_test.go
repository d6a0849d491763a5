package invariant

import (
	"strings"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/check"
	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/tlb"
)

// mtlbCell returns a registered experiment cell with an MTLB fitted, so
// tests audit the full catalogue (shadow table, MTLB, partition) and
// not just the conventional subset.
func mtlbCell(t *testing.T) exp.Cell {
	t.Helper()
	for _, d := range exp.Descriptors() {
		if d.Cells == nil {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if c.Cfg.MTLB != nil {
				return c
			}
		}
	}
	t.Fatal("no registered cell has an MTLB")
	return exp.Cell{}
}

// TestCleanRunPasses attaches the checker in record mode to a normal
// run and expects audits to have happened and found nothing.
func TestCleanRunPasses(t *testing.T) {
	c := mtlbCell(t)
	s := sim.New(c.Cfg)
	chk := Attach(s, Options{})
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(w)
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported violations: %v", vs)
	}
	if chk.Passes == 0 {
		t.Fatal("no audit passes ran — hooks are not wired")
	}
	if check.Enabled && chk.AccessChecks == 0 {
		t.Fatal("invariants tag is on but no per-access checks fired")
	}
}

// TestCorruptionsDetected plants distinct corruptions into a finished
// system and expects the matching catalogue rule to fire for each.
func TestCorruptionsDetected(t *testing.T) {
	c := mtlbCell(t)
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *sim.System {
		s := sim.New(c.Cfg)
		s.Run(w)
		return s
	}

	t.Run("shadow.bits", func(t *testing.T) {
		s := fresh()
		// A ref bit on an unmapped shadow page: the MTLB only maintains
		// bits on valid entries, so this state is unreachable.
		spa := findShadowPage(s, false)
		s.VM.STable.Set(spa, core.TableEntry{Ref: true})
		expectRule(t, s, "shadow.bits")
	})
	t.Run("shadow.backing", func(t *testing.T) {
		s := fresh()
		// Two valid shadow pages sharing one frame.
		a := findShadowPage(s, true)
		b := findShadowPage(s, false)
		s.VM.STable.Set(b, core.TableEntry{PFN: s.VM.STable.Get(a).PFN, Valid: true})
		expectRule(t, s, "shadow.backing")
	})
	t.Run("translator.coherent", func(t *testing.T) {
		s := fresh()
		// Invalidate a table entry behind the translator's back: a cached
		// translation for it becomes a missed shootdown. Force the page
		// into the backend first.
		spa := findShadowPage(s, true)
		if _, err := s.Translator.Translate(spa, false); err != nil {
			t.Fatalf("priming translator: %v", err)
		}
		ent := s.VM.STable.Get(spa)
		ent.Valid = false
		s.VM.STable.Set(spa, ent)
		expectRule(t, s, "translator.coherent")
	})
	t.Run("tlb.internal", func(t *testing.T) {
		s := fresh()
		// A write through an entry pointer that bypasses Insert: the
		// entry's tag moves to another page without the index knowing.
		var tag uint64
		s.CPUTLB.VisitValid(func(e tlb.Entry) { tag = e.Tag })
		e := s.CPUTLB.Probe(tag)
		if e == nil {
			t.Fatal("run left the processor TLB empty")
		}
		e.Tag += e.Class.Bytes()
		expectRule(t, s, "tlb.internal")
	})
}

// smpCell returns a registered multicore cell with an MTLB and more
// than one CPU, so the multicore catalogue audits real cross-CPU state.
func smpCell(t *testing.T) exp.Cell {
	t.Helper()
	for _, d := range exp.Descriptors() {
		if d.ID != "smp" {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if c.Cfg.MTLB != nil && c.Cfg.SMP != nil && c.Cfg.SMP.CPUs > 1 {
				return c
			}
		}
	}
	t.Fatal("no registered multicore cell has an MTLB")
	return exp.Cell{}
}

// TestSMPCleanRunPasses attaches the multicore checker in record mode
// to a normal parallel run and expects audits to have happened — at
// quantum boundaries among others — and found nothing.
func TestSMPCleanRunPasses(t *testing.T) {
	c := smpCell(t)
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSMP(c.Cfg, w)
	chk := AttachSMP(s, Options{})
	s.Run()
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported violations: %v", vs)
	}
	if chk.Passes == 0 {
		t.Fatal("no audit passes ran — hooks are not wired")
	}
}

// TestAttachSMPProbesEveryCPU pins that the multicore checker probes
// every processor's accesses, not only the boot processor's: on a
// 4-CPU radixp run each CPU's probe fires and each firing is checked,
// cleanly, and a wrong real address reported through CPU 1's probe is
// an access.real violation.
func TestAttachSMPProbesEveryCPU(t *testing.T) {
	if !check.Enabled {
		t.Skip("the per-access probe is compiled in only under the invariants build tag")
	}
	cfg := sim.Default().WithTLB(64).WithMTLB(core.MTLBConfig{Entries: 128, Ways: 2}).WithSMP(4)
	w, err := exp.MakeWorkload("radixp", exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSMP(cfg, w)
	// A counter chained ahead of each CPU's probe sees every access the
	// CPU reports, and remembers CPU 1's last one.
	fired := make([]uint64, len(s.CPUs))
	var va arch.VAddr
	var real arch.PAddr
	for i, c := range s.CPUs {
		c.OnAccessCheck = func(v arch.VAddr, r arch.PAddr) {
			fired[i]++
			if i == 1 {
				va, real = v, r
			}
		}
	}
	chk := AttachSMP(s, Options{})
	s.Run()

	var total uint64
	for i, n := range fired {
		if n == 0 {
			t.Errorf("cpu %d reported no accesses to its probe", i)
		}
		total += n
	}
	if chk.AccessChecks == 0 || chk.AccessChecks != total {
		t.Fatalf("checker made %d access checks, want one per probed access (%d)", chk.AccessChecks, total)
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported violations: %v", vs)
	}

	s.CPUs[1].OnAccessCheck(va, real^arch.PAddr(arch.PageSize))
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Rule != "access.real" {
		t.Fatalf("wrong real address on cpu 1 gave %v, want one access.real violation", vs)
	}
}

// TestSMPCorruptionsDetected plants multicore corruptions into a
// finished parallel system and expects the per-CPU rules to fire.
func TestSMPCorruptionsDetected(t *testing.T) {
	c := smpCell(t)
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSMP(c.Cfg, w)
	s.Run()

	// A TLB entry on CPU 1 that no page table can produce is exactly
	// what a missed shootdown IPI leaves behind.
	s.CPUs[1].TLB.Insert(tlb.Entry{
		Tag: uint64(arch.VAddr(0x7f00_0000)), Class: arch.Page4K,
		Target: uint64(arch.PAddr(0x1000)), Valid: true,
	})
	vs := CheckSMP(s)
	found := false
	for _, v := range vs {
		if v.Rule == "shootdown.ipi" && strings.HasPrefix(v.Detail, "cpu 1: ") {
			found = true
		}
		if v.Rule == "tlb.backed" {
			t.Errorf("multicore audit reported the uniprocessor rule: %v", v)
		}
	}
	if !found {
		t.Fatalf("planted stale TLB entry on CPU 1 not detected, got: %v", vs)
	}

	// Bookkeeping corruption on CPU 1's TLB: an entry marked invalid
	// behind the TLB's back still sits in its index and counts.
	var tag uint64
	s.CPUs[1].TLB.VisitValid(func(e tlb.Entry) { tag = e.Tag })
	s.CPUs[1].TLB.Probe(tag).Valid = false
	found = false
	for _, v := range CheckSMP(s) {
		if v.Rule == "tlb.internal" && strings.HasPrefix(v.Detail, "cpu 1: ") {
			found = true
		}
	}
	if !found {
		t.Fatal("planted TLB bookkeeping corruption on CPU 1 not detected")
	}
}

// findShadowPage returns a shadow page whose entry validity matches
// valid, skipping the test when the run left none in that state.
func findShadowPage(s *sim.System, valid bool) arch.PAddr {
	space := s.VM.STable.Space()
	for i := uint64(0); i < space.Pages(); i++ {
		spa := space.PageAddr(i)
		if s.VM.STable.Get(spa).Valid == valid {
			return spa
		}
	}
	panic("no shadow page in requested state")
}

// expectRule audits the system and requires at least one violation of
// the named rule (and tolerates companions — one corruption can trip
// several related rules).
func expectRule(t *testing.T, s *sim.System, rule string) {
	t.Helper()
	vs := Check(s)
	if len(vs) == 0 {
		t.Fatalf("corruption not detected, want rule %s", rule)
	}
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	var got []string
	for _, v := range vs {
		got = append(got, v.Rule+": "+v.Detail)
	}
	t.Fatalf("want rule %s, got:\n%s", rule, strings.Join(got, "\n"))
}
