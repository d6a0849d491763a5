package exp

import (
	"fmt"

	"shadowtlb/internal/core"
	"shadowtlb/internal/stats"
)

// SchemesTLBEntries is the CPU TLB size of the head-to-head comparison:
// the smallest Figure 3 machine, where translation-backend quality
// matters most.
const SchemesTLBEntries = 64

// SchemeCell is one (workload, scheme) point of the head-to-head
// comparison. Scheme "none" is the conventional reference system.
type SchemeCell struct {
	Workload   string
	Scheme     string
	Cycles     uint64
	Normalized float64 // vs the same workload's no-MTLB reference
	TLBFrac    float64 // fraction of runtime in TLB miss handling
	// Backend-side measurements (zero for the reference).
	MTLBHitRate  float64
	MTLBFills    uint64
	AvgFillMMC   float64 // Figure 4(B)'s metric: MMC cycles per cache fill
	AddedFillMMC float64 // added fill delay vs the reference machine
}

// SchemesResult holds both tables of the head-to-head family.
type SchemesResult struct {
	TableA  *stats.Table // Figure 3-style runtimes per scheme
	TableB  *stats.Table // Figure 4-style backend behaviour per scheme
	Schemes []string     // registered backends, default first
	Cells   []SchemeCell
}

// Cell finds one comparison point; it panics if absent (bench
// programming error). Scheme "none" selects the reference system.
func (r SchemesResult) Cell(workload, scheme string) SchemeCell {
	for _, c := range r.Cells {
		if c.Workload == workload && c.Scheme == scheme {
			return c
		}
	}
	panic(fmt.Sprintf("exp: no schemes cell %s/%s", workload, scheme))
}

// schemesCells lists the family's simulations: per workload, the
// conventional reference plus every registered backend on identical
// geometry and timing.
func schemesCells(scale Scale) []Cell {
	var cells []Cell
	for _, name := range paperWorkloads {
		cells = append(cells, NewCell(baseConfig().WithTLB(SchemesTLBEntries), name, scale))
		for _, scheme := range core.SchemeNames() {
			cfg := withMTLB(baseConfig().WithTLB(SchemesTLBEntries)).WithScheme(scheme)
			cells = append(cells, NewCell(cfg, name, scale))
		}
	}
	return cells
}

// SchemesOn runs the translation-scheme head-to-head: the five paper
// programs on a 64-entry CPU TLB, once on the conventional reference
// and once per registered backend with the paper's 128-entry 2-way
// geometry — same machine, same timing model, only the translation
// scheme varies. Table A mirrors Figure 3's cycle accounting (runtime
// normalized to the reference, TLB-miss fraction); Table B mirrors
// Figure 4's (backend hit rate, table fills, average MMC cycles per
// cache fill and the delay added over the reference).
func SchemesOn(r Runner, scale Scale) SchemesResult {
	ta := stats.NewTable(
		"Schemes head-to-head (A): runtimes, CPU TLB = 64, MTLB 128/2w ["+scale.String()+" scale]",
		"program", "scheme", "cycles", "normalized", "tlb-miss time", "bar")
	tb := stats.NewTable(
		"Schemes head-to-head (B): backend behaviour ["+scale.String()+" scale]",
		"program", "scheme", "hit rate", "fills", "avg fill (MMC cycles)", "added vs none")
	res := SchemesResult{TableA: ta, TableB: tb, Schemes: core.SchemeNames()}

	for _, name := range paperWorkloads {
		ref := r.Result(NewCell(baseConfig().WithTLB(SchemesTLBEntries), name, scale))
		refCell := SchemeCell{
			Workload:   name,
			Scheme:     "none",
			Cycles:     uint64(ref.TotalCycles()),
			Normalized: 1.0,
			TLBFrac:    ref.TLBFraction(),
			AvgFillMMC: ref.AvgFillMMC,
		}
		res.Cells = append(res.Cells, refCell)
		ta.AddRow(name, "none", mcycles(refCell.Cycles), "1.000",
			pct(refCell.TLBFrac), stats.Bar(0.5, 40))
		tb.AddRow(name, "none", "-", "-",
			fmt.Sprintf("%.2f", refCell.AvgFillMMC), "0.00")

		for _, scheme := range core.SchemeNames() {
			cfg := withMTLB(baseConfig().WithTLB(SchemesTLBEntries)).WithScheme(scheme)
			run := r.Result(NewCell(cfg, name, scale))
			cell := SchemeCell{
				Workload:     name,
				Scheme:       scheme,
				Cycles:       uint64(run.TotalCycles()),
				Normalized:   float64(run.TotalCycles()) / float64(refCell.Cycles),
				TLBFrac:      run.TLBFraction(),
				MTLBHitRate:  run.MTLBHitRate,
				MTLBFills:    run.MTLBFills,
				AvgFillMMC:   run.AvgFillMMC,
				AddedFillMMC: run.AvgFillMMC - refCell.AvgFillMMC,
			}
			res.Cells = append(res.Cells, cell)
			ta.AddRow(name, scheme, mcycles(cell.Cycles),
				fmt.Sprintf("%.3f", cell.Normalized), pct(cell.TLBFrac),
				stats.Bar(cell.Normalized/2, 40))
			tb.AddRow(name, scheme, fmt.Sprintf("%.4f", cell.MTLBHitRate),
				fmt.Sprintf("%d", cell.MTLBFills),
				fmt.Sprintf("%.2f", cell.AvgFillMMC),
				fmt.Sprintf("%.2f", cell.AddedFillMMC))
		}
	}
	return res
}
