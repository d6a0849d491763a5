package cpu

import (
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/bus"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/core"
	"shadowtlb/internal/kernel"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/mmc"
	"shadowtlb/internal/ptable"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/vm"
)

// testCPU assembles a machine with a small TLB for eviction tests.
func testCPU(t *testing.T, withMTLB bool, tlbEntries int) *CPU {
	t.Helper()
	dram := mem.NewDRAM(64 * arch.MB)
	frames := mem.NewFrameAlloc(2*arch.MB/arch.PageSize, (64*arch.MB-2*arch.MB)/arch.PageSize, mem.Scatter)
	hpt := ptable.New(0x180000, 4096)
	b := bus.New(bus.DefaultConfig())

	// mt must stay a true nil interface on baseline systems — a wrapped
	// nil *core.MTLB would read as present to the MMC.
	var mt core.Translator
	var stable *core.ShadowTable
	var alloc core.ShadowAllocator
	if withMTLB {
		space := core.ShadowSpace{Base: 0x80000000, Size: 64 * arch.MB}
		stable = core.NewShadowTable(space, 0x100000, dram)
		mt = core.NewMTLB(core.DefaultMTLBConfig(), stable)
		alloc = core.NewBucketAlloc(space, []core.BucketSpec{
			{Class: arch.Page16K, Count: 512},
			{Class: arch.Page64K, Count: 128},
			{Class: arch.Page256K, Count: 32},
			{Class: arch.Page1M, Count: 8},
		})
	}
	m := mmc.New(mmc.Config{Timing: mmc.DefaultTiming()}, b, mt)
	v := vm.New(vm.Deps{
		Dram: dram, Frames: frames, HPT: hpt, MMC: m,
		Cache:       cache.New(cache.DefaultConfig()),
		CPUTLB:      tlb.New(tlb.FullyAssociative(tlbEntries)),
		ITLB:        &tlb.MicroITLB{},
		Kernel:      kernel.New(kernel.DefaultCosts()),
		ShadowAlloc: alloc, STable: stable,
	})
	return NewOnTLBs(Config{TLBEntries: tlbEntries, TextPages: 4, IFetchPeriod: 100}, v, v.CPUTLB, v.ITLB)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 64*arch.KB)
	c.Store(base+8, 8, 0xDEADBEEFCAFEF00D)
	if got := c.Load(base+8, 8); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("Load = %#x", got)
	}
	c.Store(base+100, 4, 0x12345678)
	if got := c.Load(base+100, 4); got != 0x12345678 {
		t.Errorf("Load32 = %#x", got)
	}
	c.Store(base+200, 1, 0xAB)
	if got := c.Load(base+200, 1); got != 0xAB {
		t.Errorf("Load8 = %#x", got)
	}
	c.Store(base+300, 2, 0xBEEF)
	if got := c.Load(base+300, 2); got != 0xBEEF {
		t.Errorf("Load16 = %#x", got)
	}
}

func TestBreakdownCategories(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 2*arch.MB)
	// First sweep faults pages in (kernel time); the second sweep misses
	// both the TLB (512 pages >> 64 entries) and the cache (2 MB > 512 KB),
	// so every category is exercised.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 512; i++ {
			c.Load(base+arch.VAddr(i*arch.PageSize), 8)
		}
	}
	b := c.Breakdown
	if b.User == 0 || b.TLBMiss == 0 || b.Memory == 0 || b.Kernel == 0 {
		t.Errorf("breakdown has empty categories: %v", b)
	}
	if c.Instructions != 1024 {
		t.Errorf("Instructions = %d", c.Instructions)
	}
	if c.Loads != 1024 || c.Stores != 0 {
		t.Errorf("Loads=%d Stores=%d", c.Loads, c.Stores)
	}
}

func TestTLBCapturesWorkingSet(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 1*arch.MB)
	// Working set of 32 pages fits a 64-entry TLB: after the first
	// sweep, further sweeps take no TLB misses.
	sweep := func() {
		for i := 0; i < 32; i++ {
			c.Load(base+arch.VAddr(i*arch.PageSize), 8)
		}
	}
	sweep()
	missesAfterWarm := c.VM.TLBMisses
	sweep()
	sweep()
	if c.VM.TLBMisses != missesAfterWarm {
		t.Errorf("warm sweeps caused %d extra misses", c.VM.TLBMisses-missesAfterWarm)
	}
}

func TestTLBThrashing(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 2*arch.MB)
	// Warm-up sweep pays the one-time page faults.
	for i := 0; i < 256; i++ {
		c.Load(base+arch.VAddr(i*arch.PageSize), 8)
	}
	before := c.Breakdown
	missesBefore := c.VM.TLBMisses
	// 256 pages >> 64 entries: steady-state sweeps miss on every page.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 256; i++ {
			c.Load(base+arch.VAddr(i*arch.PageSize), 8)
		}
	}
	misses := c.VM.TLBMisses - missesBefore
	if misses < 1000 {
		t.Errorf("expected heavy thrashing, got %d misses", misses)
	}
	deltaTLB := c.Breakdown.TLBMiss - before.TLBMiss
	deltaTotal := c.Breakdown.Total() - before.Total()
	if frac := float64(deltaTLB) / float64(deltaTotal); frac < 0.20 {
		t.Errorf("steady-state TLB fraction = %.3f, expected substantial", frac)
	}
}

func TestSuperpagesEliminateTLBMisses(t *testing.T) {
	c := testCPU(t, true, 64)
	base := c.AllocRegion("data", 2*arch.MB)
	for i := 0; i < 512; i++ { // fault everything in
		c.Load(base+arch.VAddr(i*arch.PageSize), 8)
	}
	if !c.Remap(base, 2*arch.MB) {
		t.Fatal("remap should succeed with MTLB")
	}
	// Warm sweep: reloads the superpage entries and the text pages the
	// fault-in phase thrashed out of the TLB.
	for i := 0; i < 512; i++ {
		c.Load(base+arch.VAddr(i*arch.PageSize), 8)
	}
	warm := c.VM.TLBMisses
	// The whole 2MB is now 2 superpage TLB entries: sweeps stay warm.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 512; i++ {
			c.Load(base+arch.VAddr(i*arch.PageSize), 8)
		}
	}
	extra := c.VM.TLBMisses - warm
	if extra != 0 {
		t.Errorf("superpage sweeps caused %d TLB misses", extra)
	}
	if c.VM.SuperpagesMade == 0 {
		t.Error("no superpages created")
	}
}

func TestRemapOnBaselineIsNoop(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 64*arch.KB)
	if c.Remap(base, 64*arch.KB) {
		t.Error("remap should report false without MTLB")
	}
}

func TestDataIntegrityThroughRemap(t *testing.T) {
	c := testCPU(t, true, 64)
	base := c.AllocRegion("data", 128*arch.KB)
	for i := 0; i < 1024; i++ {
		c.Store(base+arch.VAddr(i*8), 8, uint64(i)*0x9E3779B9)
	}
	c.Remap(base, 128*arch.KB)
	for i := 0; i < 1024; i++ {
		if got := c.Load(base+arch.VAddr(i*8), 8); got != uint64(i)*0x9E3779B9 {
			t.Fatalf("word %d = %#x after remap", i, got)
		}
	}
}

func TestDataIntegrityThroughSwap(t *testing.T) {
	c := testCPU(t, true, 64)
	base := c.AllocRegion("data", 64*arch.KB)
	for i := 0; i < 512; i++ {
		c.Store(base+arch.VAddr(i*64), 8, uint64(i)+1)
	}
	c.Remap(base, 64*arch.KB)
	// Rewrite half the pages so they are dirty post-remap.
	for i := 0; i < 256; i++ {
		c.Store(base+arch.VAddr(i*64), 8, uint64(i)+1)
	}
	r := c.VM.FindRegion("data")
	if len(r.Superpages) == 0 {
		t.Fatal("no superpages")
	}
	for _, sp := range r.Superpages {
		if _, err := c.VM.SwapOutSuperpage(sp, vm.PageGrain); err != nil {
			t.Fatal(err)
		}
	}
	kernelBefore := c.Breakdown.Kernel
	// Access after swap-out: shadow faults page data back in on demand.
	for i := 0; i < 512; i++ {
		if got := c.Load(base+arch.VAddr(i*64), 8); got != uint64(i)+1 {
			t.Fatalf("word %d = %d after swap", i, got)
		}
	}
	if c.VM.ShadowFaults == 0 {
		t.Error("expected shadow faults on first touch after swap-out")
	}
	if c.Breakdown.Kernel == kernelBefore {
		t.Error("page-in cost not charged")
	}
}

func TestIFetchPressuresTLB(t *testing.T) {
	c := testCPU(t, false, 64)
	c.Step(10_000)
	if c.ITLB.Stats.Misses == 0 {
		t.Error("expected micro-ITLB misses from cross-page fetches")
	}
	if c.ITLB.Stats.Hits != 0 {
		// Each simulated ifetch moves to a new page in this model, so
		// hits only occur via repeated fetches to the same page.
		t.Logf("ITLB hits = %d", c.ITLB.Stats.Hits)
	}
	if c.VM.TLBMisses == 0 {
		t.Error("text pages should fault into the TLB")
	}
	if c.Breakdown.User != 10_000 {
		t.Errorf("User = %d, want 10000", c.Breakdown.User)
	}
}

func TestStepZeroAndNegative(t *testing.T) {
	c := testCPU(t, false, 64)
	c.Step(0)
	c.Step(-5)
	if c.Instructions != 0 {
		t.Errorf("Instructions = %d", c.Instructions)
	}
}

func TestPageCrossingAccessPanics(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 16*arch.KB)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Load(base+arch.VAddr(arch.PageSize-4), 8)
}

func TestBadSizePanics(t *testing.T) {
	c := testCPU(t, false, 64)
	base := c.AllocRegion("data", 16*arch.KB)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.Load(base, 16)
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewOnTLBs(Config{}, nil, nil, nil)
}

func TestTimerInterruptsAccounted(t *testing.T) {
	c := testCPU(t, false, 64)
	// Run past one timer period (2.4M cycles).
	for i := 0; i < 30; i++ {
		c.Step(100_000)
	}
	if c.K.TimerTicks == 0 {
		t.Error("timer never fired")
	}
	if c.Breakdown.Kernel == 0 {
		t.Error("timer cost not charged to kernel")
	}
}
