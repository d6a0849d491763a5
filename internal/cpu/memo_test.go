package cpu

import (
	"strings"
	"testing"
	"unsafe"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/workload"
)

// TestMemoSurvivesOtherTLBMutations pins the memo's per-entry claim on a
// 64-entry TLB without an MTLB: a memoized page keeps serving the fast
// path while other pages miss, get inserted, evicted and purged, and
// stops serving once its own entry is evicted, purged (by range,
// wholesale, or by a context switch) or shadowed by an overlapping
// insert that takes a lower slot. FlushMemo empties the slot for both
// engines: afterwards a load, or a replayed reference, fills it anew.
func TestMemoSurvivesOtherTLBMutations(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 2*arch.MB)
	// a is the second page of a 16 KB-aligned block, so a superpage over
	// the block covers a without replacing a's own entry; the block sits
	// mid-region, so a's memo slot is not among the first few. The other
	// pages sit less than memoSlots pages above a, so none shares a's
	// memo slot, and never a multiple of 128 pages above it, so with
	// the virtually indexed 512 KB cache none displaces a's line.
	block := (base + arch.MB - 8*arch.KB) &^ arch.VAddr(16*arch.KB-1)
	a := block + arch.PageSize
	other := func(k int) arch.VAddr { return a + arch.VAddr(k+1+k/127)*arch.PageSize }
	// serves reports whether a's slot would serve the next reference.
	serves := func() bool {
		vpn := uint64(a) >> arch.PageShift
		return c.slot(vpn).serves(vpn, c.TLB.ShapeGen(), c.shadowGen())
	}
	// replayFills replays one load of a through the batched loop and
	// returns the memo fills it took.
	replayFills := func() uint64 {
		fills := c.Work.Fills
		c.StreamCols(workload.RefCols{
			VPN: []uint32{uint32(a >> arch.PageShift)}, Off: []uint16{0},
			Code: []uint8{workload.PackCode(8, 0)}, Store: []uint64{0},
		})
		return c.Work.Fills - fills
	}

	c.Load(a, 8)
	if !serves() {
		t.Fatal("freshly memoized page does not serve the fast path")
	}
	e := c.TLB.Probe(uint64(a))
	stamp := e.Stamp()

	// Misses and inserts on other pages, until the TLB is full and
	// evicts: a's entry is re-referenced after each insert, so NRU never
	// picks it, and its memo must keep serving throughout.
	evictions := 0
	for k := 0; k < 100; k++ {
		full := c.TLB.ValidCount() == c.TLB.Entries()
		misses := c.TLB.Stats.Misses
		c.Load(other(k), 8)
		if c.TLB.Stats.Misses == misses {
			t.Fatalf("page %d did not miss the TLB", k)
		}
		if full {
			evictions++
		}
		if !serves() {
			t.Fatalf("memo stopped serving after a miss on another page (%d inserts, %d evictions)", k+1, evictions)
		}
		fills := c.Work.Fills
		if c.Load(a, 8); c.Work.Fills != fills {
			t.Fatal("re-referencing a filled a slot")
		}
	}
	if evictions == 0 || c.TLB.Probe(uint64(a)) != e || e.Stamp() != stamp {
		t.Fatalf("setup: %d evictions, a's entry moved or changed", evictions)
	}

	// FlushMemo: the TLB and cache still hold a, but no slot does.
	fills := c.Work.Fills
	if c.Load(a, 8); c.Work.Fills != fills {
		t.Fatal("a load of a memoized page filled a slot")
	}
	if n := replayFills(); n != 0 {
		t.Fatalf("replayed reference to a memoized page took %d fills", n)
	}
	c.FlushMemo()
	for i := range c.memo {
		if c.memo[i].entry != nil {
			t.Fatalf("slot %d still holds a page after FlushMemo", i)
		}
	}
	if c.Load(a, 8); c.Work.Fills != fills+1 || !serves() {
		t.Fatalf("a load after FlushMemo took %d fills, want 1", c.Work.Fills-fills)
	}
	c.FlushMemo()
	if n := replayFills(); n != 1 || !serves() {
		t.Fatalf("replayed reference after FlushMemo took %d fills, want 1", n)
	}

	// Its own eviction: keep missing without touching a.
	for k := 100; c.TLB.Probe(uint64(a)) == e && e.Stamp() == stamp; k++ {
		c.Load(other(k), 8)
	}
	if serves() {
		t.Fatal("memo still serves after its TLB entry was evicted")
	}

	// Purges: another page's purge keeps the memo, its own kills it.
	for _, purge := range []struct {
		name string
		fn   func()
	}{
		{"PurgeRange", func() { c.TLB.PurgeRange(uint64(a), arch.PageSize) }},
		{"PurgeAll", func() { c.TLB.PurgeAll() }},
		{"SwitchVM", func() { c.SwitchVM(c.VM) }},
	} {
		c.Load(a, 8)
		c.Load(other(0), 8)
		c.TLB.PurgeRange(uint64(other(0)), arch.PageSize)
		if !serves() {
			t.Fatalf("%s: memo stopped serving after another page's purge", purge.name)
		}
		purge.fn()
		if serves() {
			t.Fatalf("memo still serves after %s", purge.name)
		}
	}

	// Shadowing: free a slot below a's entry, then install a superpage
	// covering a into it. Lookup of a now returns the superpage.
	c.TLB.PurgeAll()
	low := other(1)
	c.Load(low, 8)
	c.Load(a, 8)
	c.TLB.Purge(uint64(low))
	if !serves() {
		t.Fatal("memo stopped serving after another page's purge")
	}
	c.TLB.Insert(tlb.Entry{Class: arch.Page16K, Tag: uint64(block), Target: 0x4000000})
	if p := c.TLB.Probe(uint64(a)); p == nil || p.Class != arch.Page16K {
		t.Fatal("setup: the superpage does not shadow a's entry")
	}
	if serves() {
		t.Fatal("memo still serves after an overlapping insert shadowed its entry")
	}
}

// TestMemoDiagReportsCorruptSlots plants bad slots in a shadow-backed
// page's memo entry and expects MemoDiag to report each: storage that
// is another frame's, and a real base the shadow table does not give.
func TestMemoDiagReportsCorruptSlots(t *testing.T) {
	c := testCPU(t, true, 64)
	base := c.AllocRegion("data", 64*arch.KB)
	for i := 0; i < 16; i++ {
		c.Store(base+arch.VAddr(i*arch.PageSize), 8, uint64(i))
	}
	if !c.Remap(base, 64*arch.KB) {
		t.Fatal("remap failed")
	}
	c.Load(base, 8)
	c.Load(base+arch.PageSize, 8)
	if bad := c.MemoDiag(); len(bad) != 0 {
		t.Fatalf("clean memo reported: %v", bad)
	}
	m := c.slot(uint64(base) >> arch.PageShift)
	n := c.slot(uint64(base+arch.PageSize) >> arch.PageShift)
	if !m.serves(uint64(base)>>arch.PageShift, c.TLB.ShapeGen(), c.shadowGen()) || !c.VM.STable.Space().Contains(m.paBase()) {
		t.Fatal("setup: the first page is not memoized through shadow memory")
	}
	good := *m

	for _, plant := range []struct {
		name, want string
		fn         func()
	}{
		{"another frame's storage", "storage", func() { m.page = n.page }},
		{"a real base the shadow table disagrees with", "realBase", func() { m.realFrame = n.realFrame }},
	} {
		plant.fn()
		bad := c.MemoDiag()
		if len(bad) != 1 || !strings.Contains(bad[0], plant.want) {
			t.Errorf("%s: MemoDiag = %q, want one report naming %s", plant.name, bad, plant.want)
		}
		*m = good
	}
	if bad := c.MemoDiag(); len(bad) != 0 {
		t.Fatalf("restored memo reported: %v", bad)
	}
}

// TestMemoSlotFillsOneCacheLine pins the slot layout the memo's size
// was measured with: one 64-byte host cache line per slot on a 64-bit
// host.
func TestMemoSlotFillsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot layout is sized for 64-bit hosts")
	}
	if n := unsafe.Sizeof(memoSlot{}); n != 64 {
		t.Errorf("memoSlot is %d bytes, want 64", n)
	}
}

// TestMemoSlotsAreLineAligned pins where the memo sits: first in the
// CPU, a page-aligned allocation, so that no slot straddles two host
// cache lines.
func TestMemoSlotsAreLineAligned(t *testing.T) {
	c := testCPU(t, false, 64)
	if a := uintptr(unsafe.Pointer(&c.memo[0])); a%64 != 0 {
		t.Errorf("memo starts at %#x, off a 64-byte line", a)
	}
}
