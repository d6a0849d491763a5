package tlb

import (
	"testing"
	"testing/quick"

	"shadowtlb/internal/arch"
)

func TestEntryTranslate(t *testing.T) {
	// The paper's Figure 1 example: virtual 0x00004080 maps through a
	// 16 KB superpage at 0x00004000 -> shadow 0x80240000.
	e := Entry{Valid: true, Class: arch.Page16K, Tag: 0x00004000, Target: 0x80240000}
	if got := e.Translate(0x00004080); got != 0x80240080 {
		t.Errorf("Translate = %#x, want 0x80240080", got)
	}
	if got := e.Translate(0x00007fff); got != 0x80243fff {
		t.Errorf("Translate end = %#x, want 0x80243fff", got)
	}
}

func TestLookupHitMiss(t *testing.T) {
	tl := New(FullyAssociative(4))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x40000000})
	if e := tl.Lookup(0x1abc); e == nil || e.Translate(0x1abc) != 0x40000abc {
		t.Fatal("expected hit with correct translation")
	}
	if e := tl.Lookup(0x2000); e != nil {
		t.Fatal("expected miss")
	}
	if tl.Stats.Hits != 1 || tl.Stats.Misses != 1 {
		t.Errorf("stats = %v", tl.Stats)
	}
}

func TestSuperpageCoverage(t *testing.T) {
	tl := New(FullyAssociative(2))
	tl.Insert(Entry{Class: arch.Page16M, Tag: 0x01000000, Target: 0x80000000})
	// Any address inside the 16MB range hits.
	for _, a := range []uint64{0x01000000, 0x01ffffff, 0x01800123} {
		if tl.Lookup(a) == nil {
			t.Errorf("expected hit at %#x", a)
		}
	}
	for _, a := range []uint64{0x00ffffff, 0x02000000} {
		if tl.Lookup(a) != nil {
			t.Errorf("expected miss at %#x", a)
		}
	}
}

func TestInsertReplacesSameRange(t *testing.T) {
	tl := New(FullyAssociative(4))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x10000})
	old := tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x20000})
	if !old.Valid || old.Target != 0x10000 {
		t.Errorf("expected displaced old mapping, got %+v", old)
	}
	if tl.ValidCount() != 1 {
		t.Errorf("ValidCount = %d, want 1 (in-place replace)", tl.ValidCount())
	}
	if e := tl.Probe(0x1000); e.Target != 0x20000 {
		t.Errorf("Probe target = %#x", e.Target)
	}
}

func TestNRUEviction(t *testing.T) {
	tl := New(FullyAssociative(2))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0xa000})
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x2000, Target: 0xb000})
	// Touch 0x2000 so 0x1000's NRU bit is the clear one after aging.
	tl.Lookup(0x2000)
	old := tl.Insert(Entry{Class: arch.Page4K, Tag: 0x3000, Target: 0xc000})
	if !old.Valid {
		t.Fatal("expected an eviction")
	}
	if tl.Probe(0x2000) == nil {
		t.Error("recently used entry was evicted")
	}
	if tl.Probe(0x3000) == nil {
		t.Error("new entry missing")
	}
}

func TestWiredEntriesSurvive(t *testing.T) {
	tl := New(FullyAssociative(2))
	tl.Insert(Entry{Class: arch.Page16M, Tag: 0, Target: 0, Wired: true, Supervisor: true})
	for i := uint64(1); i <= 8; i++ {
		tl.Insert(Entry{Class: arch.Page4K, Tag: 0x10000000 + i*0x1000, Target: i * 0x1000})
	}
	if tl.Probe(0x100) == nil {
		t.Error("wired kernel block entry was evicted")
	}
	tl.PurgeAll()
	if tl.Probe(0x100) == nil {
		t.Error("PurgeAll should not remove wired entries")
	}
	if tl.ValidCount() != 1 {
		t.Errorf("ValidCount after PurgeAll = %d, want 1", tl.ValidCount())
	}
}

func TestAllWiredSetPanics(t *testing.T) {
	tl := New(FullyAssociative(1))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0, Wired: true})
	defer func() {
		if recover() == nil {
			t.Error("expected panic inserting into fully wired set")
		}
	}()
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x2000, Target: 0})
}

func TestSetAssociativeIndexing(t *testing.T) {
	tl := New(SetAssociative(128, 2))
	if tl.Sets() != 64 || tl.Ways() != 2 {
		t.Fatalf("geometry %d sets x %d ways", tl.Sets(), tl.Ways())
	}
	// Addresses 64 pages apart collide in the same set.
	base := uint64(0x80000000)
	for i := uint64(0); i < 3; i++ {
		tl.Insert(Entry{Class: arch.Page4K, Tag: base + i*64*arch.PageSize, Target: i * arch.PageSize})
	}
	// 2 ways, 3 conflicting inserts: exactly one of the first two is gone.
	present := 0
	for i := uint64(0); i < 3; i++ {
		if tl.Probe(base+i*64*arch.PageSize) != nil {
			present++
		}
	}
	if present != 2 {
		t.Errorf("present = %d, want 2", present)
	}
	// A non-colliding page is unaffected.
	tl.Insert(Entry{Class: arch.Page4K, Tag: base + arch.PageSize, Target: 0x999000})
	if tl.Probe(base+arch.PageSize) == nil {
		t.Error("non-colliding entry missing")
	}
}

func TestUniformClassEnforced(t *testing.T) {
	tl := New(SetAssociative(4, 2))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on superpage insert into uniform TLB")
		}
	}()
	tl.Insert(Entry{Class: arch.Page16K, Tag: 0x4000, Target: 0x8000})
}

func TestUnalignedInsertPanics(t *testing.T) {
	tl := New(FullyAssociative(2))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unaligned insert")
		}
	}()
	tl.Insert(Entry{Class: arch.Page16K, Tag: 0x1000, Target: 0x8000})
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 3, Ways: 2},
		{Entries: 0, Ways: 1},
		{Entries: 4, Ways: 2}, // multi-set without Uniform
	} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Errorf("New(%+v) should panic", cfg)
		}()
	}
}

func TestPurgeRange(t *testing.T) {
	tl := New(FullyAssociative(8))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0xa000})
	tl.Insert(Entry{Class: arch.Page16K, Tag: 0x4000, Target: 0x80000000})
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x9000, Target: 0xb000})
	// Purge [0x2000, 0x6000): overlaps the 16KB superpage only.
	n := tl.PurgeRange(0x2000, 0x4000)
	if n != 1 {
		t.Errorf("purged %d entries, want 1", n)
	}
	if tl.Probe(0x4000) != nil {
		t.Error("superpage should be purged")
	}
	if tl.Probe(0x1000) == nil || tl.Probe(0x9000) == nil {
		t.Error("non-overlapping entries should survive")
	}
}

func TestPurgeSingle(t *testing.T) {
	tl := New(FullyAssociative(2))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0xa000})
	if !tl.Purge(0x1800) {
		t.Error("Purge should find covering entry")
	}
	if tl.Purge(0x1800) {
		t.Error("second Purge should find nothing")
	}
}

func TestReach(t *testing.T) {
	tl := New(FullyAssociative(4))
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0})
	tl.Insert(Entry{Class: arch.Page16M, Tag: 0x01000000, Target: 0x80000000})
	if got := tl.Reach(); got != 4*arch.KB+16*arch.MB {
		t.Errorf("Reach = %d", got)
	}
}

// Property: after any sequence of inserts of distinct 4KB pages into a
// fully associative TLB, every probe-able entry translates consistently
// and ValidCount never exceeds capacity.
func TestInsertLookupConsistencyProperty(t *testing.T) {
	f := func(pages []uint16) bool {
		tl := New(FullyAssociative(16))
		for _, p := range pages {
			tag := uint64(p) << arch.PageShift
			tl.Insert(Entry{Class: arch.Page4K, Tag: tag, Target: tag + 0x40000000})
		}
		if tl.ValidCount() > 16 {
			return false
		}
		for _, p := range pages {
			tag := uint64(p) << arch.PageShift
			if e := tl.Probe(tag); e != nil {
				if e.Translate(tag+123) != tag+0x40000000+123 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NRU never evicts the most recently touched entry.
func TestNRUNeverEvictsMostRecentProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tl := New(FullyAssociative(4))
		var last uint64
		haveLast := false
		for _, op := range ops {
			tag := uint64(op%16) << arch.PageShift
			if tl.Probe(tag) != nil {
				tl.Lookup(tag)
			} else {
				tl.Insert(Entry{Class: arch.Page4K, Tag: tag, Target: tag})
			}
			if haveLast && last != tag && tl.Probe(last) == nil {
				return false
			}
			last, haveLast = tag, true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMicroITLB(t *testing.T) {
	var m MicroITLB
	if _, ok := m.Lookup(0x1000); ok {
		t.Fatal("empty micro-ITLB should miss")
	}
	m.Refill(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x5000})
	got, ok := m.Lookup(0x1234)
	if !ok || got != 0x5234 {
		t.Fatalf("Lookup = %#x,%v", got, ok)
	}
	if _, ok := m.Lookup(0x2000); ok {
		t.Fatal("different page should miss")
	}
	if m.Stats.Hits != 1 || m.Stats.Misses != 2 {
		t.Errorf("stats = %v", m.Stats)
	}
	m.PurgeIfOverlaps(0x8000, 0x1000) // no overlap
	if _, ok := m.Lookup(0x1000); !ok {
		t.Error("non-overlapping purge should keep entry")
	}
	m.PurgeIfOverlaps(0x0, 0x10000)
	if _, ok := m.Lookup(0x1000); ok {
		t.Error("overlapping purge should drop entry")
	}
	m.Refill(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x5000})
	m.Purge()
	if _, ok := m.Lookup(0x1000); ok {
		t.Error("Purge should drop entry")
	}
}
