package exp

import (
	"fmt"

	"shadowtlb/internal/core"
	"shadowtlb/internal/stats"
)

// Fig4Configs is the MTLB size/associativity grid of Figure 4, plus the
// 128-entry-CPU-TLB no-MTLB reference system.
var Fig4Configs = []core.MTLBConfig{
	{Entries: 64, Ways: 1},
	{Entries: 64, Ways: 2},
	{Entries: 128, Ways: 1},
	{Entries: 128, Ways: 2}, // the paper's default
	{Entries: 128, Ways: 4},
	{Entries: 256, Ways: 2},
	{Entries: 256, Ways: 4},
	{Entries: 512, Ways: 4},
}

// Fig4Cell is one em3d configuration point.
type Fig4Cell struct {
	Label       string
	MTLB        *core.MTLBConfig // nil for the no-MTLB reference
	Cycles      uint64
	MTLBHitRate float64
	AvgFillMMC  float64 // Figure 4(B): MMC cycles per cache fill
	// AddedFillMMC is the added delay vs the no-MTLB system's fills —
	// the quantity the paper quotes as "10 cycles down to 1.5" (§3.5).
	AddedFillMMC float64
}

// Fig4Result holds both panels of Figure 4.
type Fig4Result struct {
	TableA *stats.Table // runtimes
	TableB *stats.Table // average time per cache fill
	Ref    Fig4Cell     // 128-entry CPU TLB, no MTLB
	Cells  []Fig4Cell
}

// Cell finds a configuration's measurements by label (e.g. "128/2w").
func (r Fig4Result) Cell(label string) Fig4Cell {
	for _, c := range r.Cells {
		if c.Label == label {
			return c
		}
	}
	panic(fmt.Sprintf("exp: no Fig4 cell %q", label))
}

// fig4Cells lists the em3d sweep: the no-MTLB reference plus the grid.
func fig4Cells(scale Scale) []Cell {
	cells := []Cell{NewCell(baseConfig().WithTLB(128), "em3d", scale)}
	for _, mc := range Fig4Configs {
		cells = append(cells, NewCell(baseConfig().WithTLB(128).WithMTLB(mc), "em3d", scale))
	}
	return cells
}

// Fig4On reproduces Figure 4: em3d — the program with the worst cache
// behaviour, hence the most main-memory accesses — run on a 128-entry
// CPU TLB across MTLB sizes and associativities, against the no-MTLB
// reference. Panel A is total runtime; panel B is the average time per
// cache fill in MMC cycles (§3.5).
func Fig4On(r Runner, scale Scale) Fig4Result {
	ta := stats.NewTable("Figure 4(A): em3d runtime vs MTLB configuration (CPU TLB = 128) ["+scale.String()+" scale]",
		"mtlb", "cycles", "vs no-MTLB", "mtlb hit rate", "bar")
	tb := stats.NewTable("Figure 4(B): em3d average MMC cycles per cache fill ["+scale.String()+" scale]",
		"mtlb", "avg fill (MMC cycles)", "added vs no-MTLB")
	res := Fig4Result{TableA: ta, TableB: tb}

	ref := r.Result(NewCell(baseConfig().WithTLB(128), "em3d", scale))
	res.Ref = Fig4Cell{
		Label:      "none",
		Cycles:     uint64(ref.TotalCycles()),
		AvgFillMMC: ref.AvgFillMMC,
	}
	ta.AddRow("none", mcycles(res.Ref.Cycles), "1.000", "-",
		stats.Bar(0.5, 40))
	tb.AddRowf("none", res.Ref.AvgFillMMC, 0.0)

	for _, mc := range Fig4Configs {
		cfg := baseConfig().WithTLB(128).WithMTLB(mc)
		run := r.Result(NewCell(cfg, "em3d", scale))
		cell := Fig4Cell{
			Label:        fmt.Sprintf("%d/%dw", mc.Entries, mc.Ways),
			MTLB:         &mc,
			Cycles:       uint64(run.TotalCycles()),
			MTLBHitRate:  run.MTLBHitRate,
			AvgFillMMC:   run.AvgFillMMC,
			AddedFillMMC: run.AvgFillMMC - res.Ref.AvgFillMMC,
		}
		res.Cells = append(res.Cells, cell)
		rel := float64(cell.Cycles) / float64(res.Ref.Cycles)
		ta.AddRow(cell.Label, mcycles(cell.Cycles), fmt.Sprintf("%.3f", rel),
			fmt.Sprintf("%.4f", cell.MTLBHitRate), stats.Bar(rel/2, 40))
		tb.AddRowf(cell.Label, cell.AvgFillMMC, cell.AddedFillMMC)
	}
	return res
}
