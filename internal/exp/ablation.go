package exp

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/vm"
)

// AblationAllocatorResult compares the paper's static bucket partition
// against the buddy-system refinement it suggests (§2.4), on two axes:
// runtime for a normal program, and robustness when a workload's size
// mix exhausts one bucket class.
type AblationAllocatorResult struct {
	Table *stats.Table
	// BucketCycles/BuddyCycles: em3d runtime under each allocator.
	BucketCycles uint64
	BuddyCycles  uint64
	// BucketFallbacks counts superpages created at a smaller class than
	// optimal because a bucket ran dry, under a 64KB-heavy stress mix.
	BucketExhausted bool
	BuddyExhausted  bool
}

// buddyConfig is the default MTLB system on the buddy shadow allocator.
func buddyConfig() sim.Config {
	cfg := withMTLB(baseConfig())
	cfg.UseBuddy = true
	return cfg
}

// ablationAllocatorCells lists the two em3d runs; the bucket one is the
// default MTLB base system shared with the other experiments.
func ablationAllocatorCells(scale Scale) []Cell {
	return []Cell{
		NewCell(withMTLB(baseConfig()), "em3d", scale),
		NewCell(buddyConfig(), "em3d", scale),
	}
}

// AblationAllocatorOn runs em3d under both allocators and then stresses
// each with 300 x 64 KB regions — beyond the Figure 2 partition's 256
// regions of that class.
func AblationAllocatorOn(r Runner, scale Scale) AblationAllocatorResult {
	var res AblationAllocatorResult

	r1 := r.Result(NewCell(withMTLB(baseConfig()), "em3d", scale))
	res.BucketCycles = uint64(r1.TotalCycles())

	r2 := r.Result(NewCell(buddyConfig(), "em3d", scale))
	res.BuddyCycles = uint64(r2.TotalCycles())

	// Stress: can the allocator serve 300 64 KB superpages?
	stress := func(useBuddy bool) bool {
		var alloc core.ShadowAllocator
		if useBuddy {
			alloc = core.NewBuddyAlloc(core.DefaultShadowSpace())
		} else {
			alloc = core.NewBucketAlloc(core.DefaultShadowSpace(), core.DefaultPartition())
		}
		for i := 0; i < 300; i++ {
			if _, err := alloc.Alloc(arch.Page64K); err != nil {
				return true // exhausted
			}
		}
		return false
	}
	res.BucketExhausted = stress(false)
	res.BuddyExhausted = stress(true)

	t := stats.NewTable("Ablation: bucket partition (paper) vs buddy allocator (future work, §2.4)",
		"allocator", "em3d cycles", "300x64KB stress")
	exh := func(b bool) string {
		if b {
			return "exhausted"
		}
		return "served"
	}
	t.AddRow("bucket", mcycles(res.BucketCycles), exh(res.BucketExhausted))
	t.AddRow("buddy", mcycles(res.BuddyCycles), exh(res.BuddyExhausted))
	res.Table = t
	return res
}

// AblationCheckResult isolates the paper's conservative +1 MMC cycle per
// operation (§2.2) against their "most recent design work", which hides
// the shadow check behind bus interface operations.
type AblationCheckResult struct {
	Table *stats.Table
	// Cycles per variant for em3d on the default MTLB system.
	WithCheck uint64
	NoCheck   uint64
	NoMTLB    uint64
	// CheckCost is the runtime fraction the conservative check costs.
	CheckCost float64
}

// noCheckConfig hides the per-operation shadow-check cycle.
func noCheckConfig() sim.Config {
	cfg := withMTLB(baseConfig()).WithTLB(128)
	cfg.NoCheckCycle = true
	return cfg
}

// ablationCheckCells lists the three em3d variants.
func ablationCheckCells(scale Scale) []Cell {
	return []Cell{
		NewCell(baseConfig().WithTLB(128), "em3d", scale),
		NewCell(withMTLB(baseConfig()).WithTLB(128), "em3d", scale),
		NewCell(noCheckConfig(), "em3d", scale),
	}
}

// AblationCheckOn runs em3d with and without the per-operation check cycle.
func AblationCheckOn(r Runner, scale Scale) AblationCheckResult {
	var res AblationCheckResult
	res.NoMTLB = uint64(r.Result(NewCell(baseConfig().WithTLB(128), "em3d", scale)).TotalCycles())
	res.WithCheck = uint64(r.Result(NewCell(withMTLB(baseConfig()).WithTLB(128), "em3d", scale)).TotalCycles())
	res.NoCheck = uint64(r.Result(NewCell(noCheckConfig(), "em3d", scale)).TotalCycles())
	res.CheckCost = float64(res.WithCheck-res.NoCheck) / float64(res.WithCheck)

	t := stats.NewTable("Ablation: per-operation MMC shadow-check cycle (paper §2.2)",
		"variant", "em3d cycles", "vs no-MTLB")
	t.AddRow("no MTLB", mcycles(res.NoMTLB), "1.000")
	t.AddRow("MTLB, check charged", mcycles(res.WithCheck),
		fmt.Sprintf("%.3f", float64(res.WithCheck)/float64(res.NoMTLB)))
	t.AddRow("MTLB, check hidden", mcycles(res.NoCheck),
		fmt.Sprintf("%.3f", float64(res.NoCheck)/float64(res.NoMTLB)))
	res.Table = t
	return res
}

// AblationFillResult compares the paper's hardware MTLB fill (a single
// indexed DRAM read, §2.2) against a software-managed fill, modelled as
// a trap-cost-sized MMC stall per miss.
type AblationFillResult struct {
	Table          *stats.Table
	HardwareCycles uint64
	SoftwareCycles uint64
	Slowdown       float64
}

// softwareFillConfig charges ~100 MMC cycles per MTLB fill: trap, table
// walk in software, restart.
func softwareFillConfig() sim.Config {
	cfg := withMTLB(baseConfig()).WithTLB(128)
	cfg.MMCTiming.MTLBFillDRAM = 100
	return cfg
}

// ablationFillCells lists the two em3d variants.
func ablationFillCells(scale Scale) []Cell {
	return []Cell{
		NewCell(withMTLB(baseConfig()).WithTLB(128), "em3d", scale),
		NewCell(softwareFillConfig(), "em3d", scale),
	}
}

// AblationFillOn runs em3d with the default fill cost and with the
// software fill cost.
func AblationFillOn(r Runner, scale Scale) AblationFillResult {
	var res AblationFillResult
	res.HardwareCycles = uint64(r.Result(NewCell(withMTLB(baseConfig()).WithTLB(128), "em3d", scale)).TotalCycles())
	res.SoftwareCycles = uint64(r.Result(NewCell(softwareFillConfig(), "em3d", scale)).TotalCycles())
	res.Slowdown = float64(res.SoftwareCycles)/float64(res.HardwareCycles) - 1

	t := stats.NewTable("Ablation: hardware vs software MTLB fill (paper §2.2)",
		"fill mechanism", "em3d cycles", "slowdown")
	t.AddRow("hardware (flat-table read)", mcycles(res.HardwareCycles), "-")
	t.AddRow("software (trap-based)", mcycles(res.SoftwareCycles), pct(res.Slowdown))
	res.Table = t
	return res
}

// AblationRefBitsResult quantifies §2.5's caveat: the MMC only sees
// cache fills, so a base page whose lines stay in the cache appears
// unreferenced even while heavily used.
type AblationRefBitsResult struct {
	Table        *stats.Table
	PagesTouched int
	RefBitsSet   int
	// Coverage is RefBitsSet/PagesTouched after a cache-warm rescan.
	Coverage float64
}

// AblationRefBits touches a shadow-backed region twice: the first sweep
// sets reference bits via fills; the OS then clears them (CLOCK-style)
// and the second, cache-warm sweep shows how many pages the MMC can
// still see.
func AblationRefBits() AblationRefBitsResult {
	s := sim.New(withMTLB(baseConfig()))
	const size = 256 * arch.KB // fits the cache: worst case for ref bits
	r := s.VM.AllocRegionAligned("refbits", size, 256*arch.KB, 0)
	if _, err := s.VM.EnsureMapped(r.Base, r.Size); err != nil {
		panic(err)
	}
	if _, err := s.VM.Remap(r.Base, r.Size); err != nil {
		panic(err)
	}
	sweep := func() {
		for off := uint64(0); off < size; off += arch.LineSize {
			va := r.Base + arch.VAddr(off)
			pte := s.VM.HPT.LookupFast(va)
			res := s.Cache.Access(va, pte.Translate(va), arch.Read)
			for _, ev := range res.Events[:res.NEvents] {
				if _, err := s.MMC.HandleEvent(ev); err != nil {
					panic(err)
				}
			}
		}
	}
	sweep() // warm: sets ref bits via fills
	for _, sp := range r.Superpages {
		if _, _, err := s.VM.ClearRefBits(sp); err != nil {
			panic(err)
		}
	}
	sweep() // cache-warm: no fills, so the MMC sees nothing

	res := AblationRefBitsResult{PagesTouched: int(size / arch.PageSize)}
	for _, sp := range r.Superpages {
		res.RefBitsSet += countRef(s, sp)
	}
	res.Coverage = float64(res.RefBitsSet) / float64(res.PagesTouched)

	t := stats.NewTable("Ablation: approximate MTLB reference bits (paper §2.5)",
		"quantity", "value")
	t.AddRow("pages touched in cache-warm rescan", fmt.Sprint(res.PagesTouched))
	t.AddRow("reference bits the MMC observed", fmt.Sprint(res.RefBitsSet))
	t.AddRow("coverage", pct(res.Coverage))
	res.Table = t
	return res
}

// countRef counts set reference bits across a superpage.
func countRef(s *sim.System, sp vm.Superpage) int {
	n := 0
	for i := 0; i < sp.Class.BasePages(); i++ {
		if s.Translator.Table().Get(sp.Shadow + arch.PAddr(i*arch.PageSize)).Ref {
			n++
		}
	}
	return n
}

// AblationDRAMResult compares the paper's flat DRAM fill latency with
// the banked open-row timing refinement, on a streaming program (radix)
// and the scattered one (em3d). Row locality rewards radix's sequential
// fills; em3d's scattered fills mostly pay the row-open cost, slightly
// above the flat calibration.
type AblationDRAMResult struct {
	Table *stats.Table

	RadixFlat, RadixBanked uint64
	Em3dFlat, Em3dBanked   uint64
	RadixRowHitRate        float64
	Em3dRowHitRate         float64
}

// dramConfig is the default MTLB system with the given DRAM bank count.
func dramConfig(banks int) sim.Config {
	cfg := withMTLB(baseConfig()).WithTLB(64)
	cfg.DRAMBanks = banks
	return cfg
}

// ablationDRAMCells lists both programs under flat and banked timing.
func ablationDRAMCells(scale Scale) []Cell {
	return []Cell{
		NewCell(dramConfig(0), "radix", scale),
		NewCell(dramConfig(8), "radix", scale),
		NewCell(dramConfig(0), "em3d", scale),
		NewCell(dramConfig(8), "em3d", scale),
	}
}

// AblationDRAMOn runs both programs on the default MTLB system with flat
// and 8-bank DRAM timing.
func AblationDRAMOn(r Runner, scale Scale) AblationDRAMResult {
	var res AblationDRAMResult
	run2 := func(name string, banks int) (uint64, float64) {
		run := r.Result(NewCell(dramConfig(banks), name, scale))
		return uint64(run.TotalCycles()), run.RowHitRate
	}
	res.RadixFlat, _ = run2("radix", 0)
	res.RadixBanked, res.RadixRowHitRate = run2("radix", 8)
	res.Em3dFlat, _ = run2("em3d", 0)
	res.Em3dBanked, res.Em3dRowHitRate = run2("em3d", 8)

	t := stats.NewTable("Ablation: flat vs banked open-row DRAM timing ["+scale.String()+" scale]",
		"program", "flat cycles", "banked cycles", "row hit rate")
	t.AddRow("radix", mcycles(res.RadixFlat), mcycles(res.RadixBanked),
		pct(res.RadixRowHitRate))
	t.AddRow("em3d", mcycles(res.Em3dFlat), mcycles(res.Em3dBanked),
		pct(res.Em3dRowHitRate))
	res.Table = t
	return res
}
