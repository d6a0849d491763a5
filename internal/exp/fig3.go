package exp

import (
	"fmt"

	"shadowtlb/internal/stats"
)

// Fig3TLBSizes are the CPU TLB sizes of Figure 3, chosen by the paper to
// correspond to recent high-end processors (§3.4).
var Fig3TLBSizes = []int{64, 96, 128}

// Fig3Cell is one bar of Figure 3.
type Fig3Cell struct {
	Workload   string
	TLBEntries int
	MTLB       bool
	Cycles     uint64
	Normalized float64 // vs the 96-entry no-MTLB base system
	TLBFrac    float64 // fraction of runtime in TLB miss handling
}

// Fig3Result holds the full figure.
type Fig3Result struct {
	Table *stats.Table
	Cells []Fig3Cell
}

// Cell finds a specific bar; it panics if absent (bench programming error).
func (r Fig3Result) Cell(workload string, tlb int, mtlb bool) Fig3Cell {
	for _, c := range r.Cells {
		if c.Workload == workload && c.TLBEntries == tlb && c.MTLB == mtlb {
			return c
		}
	}
	panic(fmt.Sprintf("exp: no Fig3 cell %s/%d/%v", workload, tlb, mtlb))
}

// fig3Cells lists the figure's simulations: the 96-entry no-MTLB
// normalization base plus the full size × MTLB grid for each program.
func fig3Cells(scale Scale) []Cell {
	var cells []Cell
	for _, name := range paperWorkloads {
		cells = append(cells, NewCell(baseConfig().WithTLB(96), name, scale))
		for _, mtlb := range []bool{false, true} {
			for _, tlbSize := range Fig3TLBSizes {
				cfg := baseConfig().WithTLB(tlbSize)
				if mtlb {
					cfg = withMTLB(cfg)
				}
				cells = append(cells, NewCell(cfg, name, scale))
			}
		}
	}
	return cells
}

// Fig3On reproduces Figure 3 using r's completed cells: normalized
// runtimes for three TLB sizes with and without a 128-entry MTLB, for
// the five programs, with the fraction of runtime spent handling TLB
// misses broken out. The base system for normalization is a 96-entry
// CPU TLB with no MTLB (§3.4).
func Fig3On(r Runner, scale Scale) Fig3Result {
	t := stats.NewTable(
		"Figure 3: normalized runtimes (base = 96-entry TLB, no MTLB) ["+scale.String()+" scale]",
		"program", "config", "cycles", "normalized", "tlb-miss time", "bar")
	res := Fig3Result{Table: t}

	for _, name := range paperWorkloads {
		base := r.Result(NewCell(baseConfig().WithTLB(96), name, scale))
		baseCycles := uint64(base.TotalCycles())

		for _, mtlb := range []bool{false, true} {
			for _, tlbSize := range Fig3TLBSizes {
				cfg := baseConfig().WithTLB(tlbSize)
				if mtlb {
					cfg = withMTLB(cfg)
				}
				run := r.Result(NewCell(cfg, name, scale))
				cell := Fig3Cell{
					Workload:   name,
					TLBEntries: tlbSize,
					MTLB:       mtlb,
					Cycles:     uint64(run.TotalCycles()),
					Normalized: float64(run.TotalCycles()) / float64(baseCycles),
					TLBFrac:    run.TLBFraction(),
				}
				res.Cells = append(res.Cells, cell)
				t.AddRow(name, cfg.Label, mcycles(cell.Cycles),
					fmt.Sprintf("%.3f", cell.Normalized), pct(cell.TLBFrac),
					stats.Bar(cell.Normalized/2, 40))
			}
		}
	}
	return res
}
