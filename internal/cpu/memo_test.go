package cpu

import (
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/tlb"
)

// TestMemoSurvivesOtherTLBMutations pins the memo's per-entry claim on a
// 64-entry TLB without an MTLB: a memoized page keeps serving the fast
// path while other pages miss, get inserted, evicted and purged, and
// stops serving once its own entry is evicted, purged (by range,
// wholesale, or by a context switch) or shadowed by an overlapping
// insert that takes a lower slot.
func TestMemoSurvivesOtherTLBMutations(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 2*arch.MB)
	// a is the second page of a 16 KB-aligned block, so a superpage over
	// the block covers a without replacing a's own entry. The other
	// pages sit a non-multiple of eight pages above a, so none shares
	// a's memo slot and, with the virtually indexed 512 KB cache, none
	// displaces a's line.
	block := (base + 16*arch.KB) &^ arch.VAddr(16*arch.KB-1)
	a := block + arch.PageSize
	other := func(k int) arch.VAddr { return a + arch.VAddr(8*(k/7)+k%7+1)*arch.PageSize }
	serves := func() bool {
		_, ok := c.fastAccess(a, arch.Read)
		return ok
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
	}
	if evictions == 0 || c.TLB.Probe(uint64(a)) != e || e.Stamp() != stamp {
		t.Fatalf("setup: %d evictions, a's entry moved or changed", evictions)
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
