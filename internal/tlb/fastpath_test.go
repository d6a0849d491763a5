package tlb

import (
	"fmt"
	"testing"

	"shadowtlb/internal/arch"
)

// TestSetIndexEquivalence pins the shift/mask set indexing to the
// modulo/divide form it replaced, across power-of-two and
// non-power-of-two set counts (96 entries / 2 ways = 48 sets is the
// paper's own MTLB ablation geometry).
func TestSetIndexEquivalence(t *testing.T) {
	geoms := []struct{ entries, ways int }{
		{64, 2},  // 32 sets: power of two, mask path
		{128, 2}, // 64 sets
		{96, 2},  // 48 sets: modulo fallback
		{96, 4},  // 24 sets: modulo fallback
		{16, 16}, // fully associative: single set
	}
	for _, g := range geoms {
		tl := New(SetAssociative(g.entries, g.ways))
		numSets := uint64(g.entries / g.ways)
		shift := arch.Page4K.Shift()
		for _, addr := range []uint64{
			0, 0x1000, 0x2340, 0xFFFF_F000, 0x8000_0000, 0x1234_5678,
			^uint64(0), 1 << 47, (1 << 47) - arch.PageSize,
		} {
			want := (addr >> shift) % numSets
			if got := tl.setIndex(addr); got != want {
				t.Errorf("%d/%dw: setIndex(%#x) = %d, want %d (page %% %d)",
					g.entries, g.ways, addr, got, want, numSets)
			}
		}
	}
}

// TestFastHitMatchesLookup verifies FastHit replays exactly the
// bookkeeping of a Lookup hit: stats and NRU state evolve identically
// whether hits go through the associative scan or the fast path.
func TestFastHitMatchesLookup(t *testing.T) {
	mk := func() *TLB {
		tl := New(FullyAssociative(4))
		for i := uint64(0); i < 4; i++ {
			tl.Insert(Entry{Class: arch.Page4K, Tag: i << arch.PageShift, Target: (i + 16) << arch.PageShift})
		}
		return tl
	}
	a, b := mk(), mk()

	// A deterministic hit sequence that forces NRU aging (all four
	// entries touched, then one again).
	seq := []uint64{0x0, 0x1000, 0x2000, 0x3000, 0x1000, 0x0}
	for _, addr := range seq {
		ea := a.Lookup(addr)
		if ea == nil {
			t.Fatalf("Lookup(%#x) missed", addr)
		}
		eb := b.Probe(addr)
		b.FastHit(eb)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverge: lookup %+v, fasthit %+v", a.Stats, b.Stats)
	}
	// The NRU state must match: insert into both and confirm the same
	// victim is chosen.
	va := a.Insert(Entry{Class: arch.Page4K, Tag: 0x9000, Target: 0x19000})
	vb := b.Insert(Entry{Class: arch.Page4K, Tag: 0x9000, Target: 0x19000})
	if va.Tag != vb.Tag {
		t.Errorf("NRU state diverged: lookup path evicted %#x, fast path %#x", va.Tag, vb.Tag)
	}
}

// TestStampAndShapeContract pins what the CPU memos rely on, for a
// scanned and an indexed geometry: an entry's stamp changes exactly when
// its slot is overwritten, evicted or purged, stamps are never reused,
// and the shape generation moves only on PurgeAll (even of an empty TLB,
// the context-switch case) and on inserts that create an overlap.
func TestStampAndShapeContract(t *testing.T) {
	for _, entries := range []int{4, 16} {
		t.Run(fmt.Sprintf("fa%d", entries), func(t *testing.T) {
			stampAndShapeContract(t, New(FullyAssociative(entries)))
		})
	}
}

func stampAndShapeContract(t *testing.T, tl *TLB) {
	seen := map[uint64]bool{}
	fresh := func(e *Entry) {
		t.Helper()
		if e == nil || e.Stamp() == 0 || seen[e.Stamp()] {
			t.Fatalf("entry %+v does not carry a fresh stamp", e)
		}
		seen[e.Stamp()] = true
	}
	shape := tl.ShapeGen()
	keepsShape := func(op string) {
		t.Helper()
		if tl.ShapeGen() != shape {
			t.Fatalf("%s moved the shape generation", op)
		}
	}
	page := func(n uint64) Entry {
		return Entry{Class: arch.Page4K, Tag: n << arch.PageShift, Target: (n + 64) << arch.PageShift}
	}

	tl.Insert(page(1))
	a := tl.Probe(0x1000)
	fresh(a)
	sa := a.Stamp()
	tl.Insert(page(2))
	b := tl.Probe(0x2000)
	fresh(b)
	tl.Lookup(0x1000)
	tl.Lookup(0x9000)
	tl.FastHit(b)
	tl.Probe(0x2000)
	if a.Stamp() != sa {
		t.Fatal("an insert elsewhere, lookups or a fast hit changed another entry's stamp")
	}
	keepsShape("non-overlapping inserts and lookups")

	// Overwrite in place: same slot, new stamp.
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x80000})
	if tl.Probe(0x1000) != a {
		t.Fatal("same-range insert did not overwrite in place")
	}
	fresh(a)

	// Eviction: fill the TLB, then displace one entry; only the victim's
	// slot gets a new stamp.
	for n := uint64(3); tl.ValidCount() < tl.Entries(); n++ {
		tl.Insert(page(n))
	}
	before := map[*Entry]uint64{}
	tl.VisitValid(func(e Entry) {
		p := tl.Probe(e.Tag)
		before[p] = p.Stamp()
	})
	next := uint64(tl.Entries() + 1)
	old := tl.Insert(page(next))
	if !old.Valid {
		t.Fatal("expected an eviction")
	}
	nu := tl.Probe(next << arch.PageShift)
	fresh(nu)
	for e, s := range before {
		if (e == nu) != (e.Stamp() != s) {
			t.Fatalf("eviction: entry %#x stamp %d -> %d (victim slot %v)", e.Tag, s, e.Stamp(), e == nu)
		}
	}
	keepsShape("eviction")

	// Purge and PurgeRange zero the purged slot's stamp and keep others.
	others := map[*Entry]uint64{}
	tl.VisitValid(func(e Entry) {
		if p := tl.Probe(e.Tag); p != nu {
			others[p] = p.Stamp()
		}
	})
	tl.Purge(next << arch.PageShift)
	if nu.Stamp() != 0 {
		t.Fatal("Purge did not clear the slot's stamp")
	}
	for e, s := range others {
		if e.Stamp() != s {
			t.Fatal("Purge changed another entry's stamp")
		}
	}
	keepsShape("Purge")
	if e := tl.Probe(0x2000); e != nil {
		tl.PurgeRange(0x2000, arch.PageSize)
		if e.Stamp() != 0 {
			t.Fatal("PurgeRange did not clear the slot's stamp")
		}
	}
	keepsShape("PurgeRange")

	// A superpage over a 4 KB entry it does not replace (the 4 KB page is
	// not at the superpage's base) creates an overlap: the shape moves,
	// the 4 KB entry's stamp does not.
	tl.PurgeAll()
	if tl.ShapeGen() == shape {
		t.Fatal("PurgeAll did not move the shape generation")
	}
	shape = tl.ShapeGen()
	tl.Insert(page(5))
	small := tl.Probe(0x5000)
	ss := small.Stamp()
	tl.Insert(Entry{Class: arch.Page16K, Tag: 0x8000, Target: 0x40000})
	keepsShape("a superpage overlapping nothing")
	tl.Insert(Entry{Class: arch.Page16K, Tag: 0x4000, Target: 0x80000})
	if tl.ShapeGen() == shape {
		t.Fatal("an overlap-creating insert did not move the shape generation")
	}
	if small.Stamp() != ss {
		t.Fatal("an overlapping insert changed the overlapped entry's stamp")
	}

	tl.PurgeAll()
	shape = tl.ShapeGen()
	tl.PurgeAll() // empty: nothing purgeable, must still advance
	if tl.ShapeGen() == shape {
		t.Fatal("PurgeAll on an empty TLB did not move the shape generation")
	}
}
