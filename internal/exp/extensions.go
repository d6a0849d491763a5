package exp

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/ptable"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
)

// This file evaluates the paper's §6 future-work extensions, built in
// this reproduction: online superpage promotion (after Romer et al.),
// MMC stream buffers (after Jouppi), and no-copy page recoloring (after
// Bershad et al.).

// PromotionResult compares three policies on the same TLB-hostile
// program: no superpages at all, explicit up-front remap (the paper's
// instrumented programs), and online promotion that discovers the hot
// region from its TLB miss stream.
type PromotionResult struct {
	Table *stats.Table

	NoneCycles     uint64
	ExplicitCycles uint64
	AdaptiveCycles uint64
	Promotions     uint64
}

// Promotion runs the comparison on a random-access region four times the
// TLB's reach.
func Promotion() PromotionResult {
	mk := func(remap bool) *workload.RandomAccess {
		return &workload.RandomAccess{
			Bytes: 1 * arch.MB, Accesses: 400_000, WriteFrac: 25,
			Remapped: remap, StepPer: 2,
		}
	}
	var res PromotionResult

	res.NoneCycles = uint64(sim.RunOn(baseConfig().WithTLB(64), mk(false)).TotalCycles())
	res.ExplicitCycles = uint64(sim.RunOn(withMTLB(baseConfig()).WithTLB(64), mk(true)).TotalCycles())

	s := sim.New(withMTLB(baseConfig()).WithTLB(64))
	s.VM.EnablePromotion(vm.DefaultPromotePolicy())
	r := s.Run(mk(false)) // the program never asks for superpages
	res.AdaptiveCycles = uint64(r.TotalCycles())
	res.Promotions = s.VM.PromotionsMade()

	t := stats.NewTable("Extension: online superpage promotion (paper §5/§6, after Romer et al.)",
		"policy", "cycles", "vs none")
	rel := func(c uint64) string {
		return fmt.Sprintf("%.3f", float64(c)/float64(res.NoneCycles))
	}
	t.AddRow("no superpages", mcycles(res.NoneCycles), "1.000")
	t.AddRow("explicit remap", mcycles(res.ExplicitCycles), rel(res.ExplicitCycles))
	t.AddRow(fmt.Sprintf("online promotion (%d promotions)", res.Promotions),
		mcycles(res.AdaptiveCycles), rel(res.AdaptiveCycles))
	res.Table = t
	return res
}

// StreamResult compares MMC stream-buffer prefetching on a streaming
// workload (radix's fill stream is strongly sequential thanks to shadow
// contiguity) against the plain MMC.
type StreamResult struct {
	Table *stats.Table

	OffCycles  uint64
	OnCycles   uint64
	StreamHits uint64
	HitPortion float64 // stream hits / fills
	Speedup    float64
}

// streamConfig is the 64-entry-TLB MTLB system with the given number of
// MMC stream buffers.
func streamConfig(buffers int) sim.Config {
	cfg := withMTLB(baseConfig()).WithTLB(64)
	cfg.StreamBuffers = buffers
	return cfg
}

// streamCells lists the radix runs with and without stream buffers; the
// no-prefetch one is shared with the reach experiment.
func streamCells(scale Scale) []Cell {
	return []Cell{
		NewCell(streamConfig(0), "radix", scale),
		NewCell(streamConfig(8), "radix", scale),
	}
}

// StreamOn runs a strided sweep whose fills are perfectly sequential.
func StreamOn(r Runner, scale Scale) StreamResult {
	var res StreamResult

	r1 := r.Result(NewCell(streamConfig(0), "radix", scale))
	res.OffCycles = uint64(r1.TotalCycles())

	r2 := r.Result(NewCell(streamConfig(8), "radix", scale))
	res.OnCycles = uint64(r2.TotalCycles())
	res.StreamHits = r2.StreamHits
	if r2.Fills > 0 {
		res.HitPortion = float64(r2.StreamHits) / float64(r2.Fills)
	}
	res.Speedup = float64(res.OffCycles)/float64(res.OnCycles) - 1

	t := stats.NewTable("Extension: MMC stream buffers (paper §6, after Jouppi) — radix ["+scale.String()+" scale]",
		"mmc", "cycles", "stream hits", "of fills")
	t.AddRow("no prefetch", mcycles(res.OffCycles), "-", "-")
	t.AddRow("8 stream buffers", mcycles(res.OnCycles),
		fmt.Sprint(res.StreamHits), pct(res.HitPortion))
	res.Table = t
	return res
}

// RecolorResult quantifies no-copy page recoloring on a physically
// indexed cache: hot pages that share a color conflict-miss on every
// alternation until the OS recolors them apart through shadow space.
type RecolorResult struct {
	Table *stats.Table

	Pages            int
	MissesBefore     uint64
	MissesAfter      uint64
	RecolorCycles    uint64
	MissesEliminated float64
}

// Recolor builds a worst case — 16 hot pages all in one cache color on a
// PIPT variant of the machine — measures the alternating-sweep miss
// count, recolors the pages across distinct colors, and re-measures.
func Recolor() RecolorResult {
	cfg := withMTLB(baseConfig())
	cfg.Cache.PhysIndexed = true
	s := sim.New(cfg)

	const pages = 16
	r := s.VM.AllocRegion("hot", pages*arch.PageSize)
	if _, err := s.VM.EnsureMapped(r.Base, r.Size); err != nil {
		panic(err)
	}
	// Force the worst case: every page recolored into color 0, so all
	// sixteen contend for the same direct-mapped sets.
	for p := 0; p < pages; p++ {
		if _, err := s.VM.RecolorPage(r.Base+arch.VAddr(p*arch.PageSize), 0); err != nil {
			panic(err)
		}
	}

	sweep := func() uint64 {
		before := s.Cache.Stats.Misses
		for round := 0; round < 50; round++ {
			for p := 0; p < pages; p++ {
				va := r.Base + arch.VAddr(p*arch.PageSize)
				pte := s.VM.HPT.LookupFast(va)
				cres := s.Cache.Access(va, pte.Translate(va), arch.Read)
				for _, ev := range cres.Events[:cres.NEvents] {
					if _, err := s.MMC.HandleEvent(ev); err != nil {
						panic(err)
					}
				}
			}
		}
		return s.Cache.Stats.Misses - before
	}

	var res RecolorResult
	res.Pages = pages
	res.MissesBefore = sweep()

	// Spread the pages across colors: shadow entries are rewritten in
	// place to new shadow addresses of distinct colors.
	res.RecolorCycles = uint64(recolorSpread(s, r, pages))
	res.MissesAfter = sweep()
	if res.MissesBefore > 0 {
		res.MissesEliminated = 1 - float64(res.MissesAfter)/float64(res.MissesBefore)
	}

	t := stats.NewTable("Extension: no-copy page recoloring (paper §6, after Bershad et al.)",
		"configuration", "sweep misses", "notes")
	t.AddRow("16 hot pages, one color", fmt.Sprint(res.MissesBefore),
		"every alternation conflicts")
	t.AddRow("recolored across 16 colors", fmt.Sprint(res.MissesAfter),
		fmt.Sprintf("%s of misses eliminated, %d cycles spent", pct(res.MissesEliminated), res.RecolorCycles))
	res.Table = t
	return res
}

// recolorSpread moves each page's shadow mapping to a distinct color:
// it reverts the page to its conventional mapping (the OS-level inverse
// of RecolorPage) and recolors it at the target color.
func recolorSpread(s *sim.System, r *vm.Region, pages int) stats.Cycles {
	var cycles stats.Cycles
	for p := 0; p < pages; p++ {
		va := (r.Base + arch.VAddr(p*arch.PageSize)).PageBase()
		pte := s.VM.HPT.LookupFast(va)
		old := pte.Target // current shadow page
		ent := s.Translator.Table().Get(old)

		// Revert to the conventional mapping: flush the shadow-tagged
		// lines, invalidate the shadow entry, restore a real-frame PTE.
		events, inspected := s.Cache.FlushPage(va, old)
		cycles += stats.Cycles(inspected * s.Kernel.Costs.FlushPerLine)
		for _, ev := range events {
			if _, err := s.MMC.HandleEvent(ev); err != nil {
				panic(err)
			}
		}
		s.Translator.Table().Set(old, core.TableEntry{})
		s.Translator.Purge(old)
		s.VM.HPT.Remove(va, arch.Page4K)
		err := s.VM.HPT.Insert(ptable.PTE{
			VBase: va, Class: arch.Page4K, Target: arch.FrameToPAddr(ent.PFN),
		})
		if err != nil {
			panic(err)
		}
		s.CPUTLB.Purge(uint64(va))

		c, err := s.VM.RecolorPage(va, uint64(p))
		if err != nil {
			panic(err)
		}
		cycles += c
	}
	return cycles
}
