package exp

import (
	"fmt"

	"shadowtlb/internal/stats"
)

// ReachCell compares the paper's headline equivalence for one program:
// "a system with a 64-entry TLB combined with an MMC that supported
// shadow superpages achieved the same performance as a system with a
// 128-entry TLB and a conventional MMC" (§1), and the claim that the
// mechanism "can more than double the effective reach of a processor
// TLB with no modification to the processor MMU" (abstract).
type ReachCell struct {
	Workload      string
	Small64MTLB   uint64 // cycles: 64-entry TLB + default MTLB
	Big128NoMTLB  uint64 // cycles: 128-entry TLB, no MTLB
	Ratio         float64
	ReachBase     uint64 // bytes mapped by the 64-entry TLB at run end, no MTLB
	ReachWithMTLB uint64 // bytes mapped by the 64-entry TLB at run end, with MTLB
	ReachMultiple float64
}

// ReachResult holds the equivalence table.
type ReachResult struct {
	Table *stats.Table
	Cells []ReachCell
}

// Cell finds one program's row.
func (r ReachResult) Cell(workload string) ReachCell {
	for _, c := range r.Cells {
		if c.Workload == workload {
			return c
		}
	}
	panic(fmt.Sprintf("exp: no Reach cell %q", workload))
}

// reachCells lists the three systems compared per program; all of them
// also appear in the §3.4 sweep, so a shared runner adds no new
// simulations for this experiment.
func reachCells(scale Scale) []Cell {
	var cells []Cell
	for _, name := range paperWorkloads {
		cells = append(cells,
			NewCell(withMTLB(baseConfig().WithTLB(64)), name, scale),
			NewCell(baseConfig().WithTLB(128), name, scale),
			NewCell(baseConfig().WithTLB(64), name, scale))
	}
	return cells
}

// ReachOn runs each program on a 64-entry-TLB MTLB system and on a
// 128-entry-TLB conventional system and compares runtimes and the TLB's
// effective reach (bytes mapped by its resident entries).
func ReachOn(r Runner, scale Scale) ReachResult {
	t := stats.NewTable("TLB reach equivalence (paper §1/abstract) ["+scale.String()+" scale]",
		"program", "64+MTLB cycles", "128 alone cycles", "ratio", "reach x")
	res := ReachResult{Table: t}
	for _, name := range paperWorkloads {
		small := r.Result(NewCell(withMTLB(baseConfig().WithTLB(64)), name, scale))
		big := r.Result(NewCell(baseConfig().WithTLB(128), name, scale))
		base := r.Result(NewCell(baseConfig().WithTLB(64), name, scale))
		cell := ReachCell{
			Workload:      name,
			Small64MTLB:   uint64(small.TotalCycles()),
			Big128NoMTLB:  uint64(big.TotalCycles()),
			ReachBase:     base.CPUTLBReachPeak,
			ReachWithMTLB: small.CPUTLBReachPeak,
		}
		cell.Ratio = float64(cell.Small64MTLB) / float64(cell.Big128NoMTLB)
		if cell.ReachBase > 0 {
			cell.ReachMultiple = float64(cell.ReachWithMTLB) / float64(cell.ReachBase)
		}
		res.Cells = append(res.Cells, cell)
		t.AddRow(name, mcycles(cell.Small64MTLB), mcycles(cell.Big128NoMTLB),
			fmt.Sprintf("%.3f", cell.Ratio), fmt.Sprintf("%.1fx", cell.ReachMultiple))
	}
	return res
}
