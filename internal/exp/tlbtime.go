package exp

import (
	"fmt"

	"shadowtlb/internal/stats"
)

// TLBTimeSizes extends Figure 3's sweep to 256 entries for the §3.4
// observations (radix still spends 13.5% of runtime in TLB misses at
// 256 entries).
var TLBTimeSizes = []int{64, 96, 128, 256}

// TLBTimeCell is one (program, TLB size, MTLB?) measurement.
type TLBTimeCell struct {
	Workload   string
	TLBEntries int
	MTLB       bool
	TLBFrac    float64
	Cycles     uint64
}

// TLBTimeResult holds the §3.4 sweep.
type TLBTimeResult struct {
	Table *stats.Table
	Cells []TLBTimeCell
}

// Cell finds one measurement.
func (r TLBTimeResult) Cell(workload string, tlb int, mtlb bool) TLBTimeCell {
	for _, c := range r.Cells {
		if c.Workload == workload && c.TLBEntries == tlb && c.MTLB == mtlb {
			return c
		}
	}
	panic(fmt.Sprintf("exp: no TLBTime cell %s/%d/%v", workload, tlb, mtlb))
}

// tlbTimeCells lists the sweep's simulations. The 64/96/128-entry
// points are the same cells Figure 3 runs, so a shared runner simulates
// them only once across the two experiments.
func tlbTimeCells(scale Scale) []Cell {
	var cells []Cell
	for _, name := range paperWorkloads {
		for _, mtlb := range []bool{false, true} {
			for _, size := range TLBTimeSizes {
				cfg := baseConfig().WithTLB(size)
				if mtlb {
					cfg = withMTLB(cfg)
				}
				cells = append(cells, NewCell(cfg, name, scale))
			}
		}
	}
	return cells
}

// TLBTimeOn reproduces the §3.4 TLB-miss-time observations: for four of
// the five programs a 64-entry TLB burns over 20% of runtime in TLB
// misses; radix has particularly poor TLB locality, still spending
// 13.5% at 256 entries; and with an MTLB, TLB miss time falls below 5%
// in every configuration.
func TLBTimeOn(r Runner, scale Scale) TLBTimeResult {
	t := stats.NewTable("TLB miss time fraction by TLB size (paper §3.4) ["+scale.String()+" scale]",
		"program", "tlb", "mtlb", "tlb-miss time", "cycles")
	res := TLBTimeResult{Table: t}
	for _, name := range paperWorkloads {
		for _, mtlb := range []bool{false, true} {
			for _, size := range TLBTimeSizes {
				cfg := baseConfig().WithTLB(size)
				if mtlb {
					cfg = withMTLB(cfg)
				}
				run := r.Result(NewCell(cfg, name, scale))
				cell := TLBTimeCell{
					Workload:   name,
					TLBEntries: size,
					MTLB:       mtlb,
					TLBFrac:    run.TLBFraction(),
					Cycles:     uint64(run.TotalCycles()),
				}
				res.Cells = append(res.Cells, cell)
				mt := "no"
				if mtlb {
					mt = "128/2w"
				}
				t.AddRow(name, fmt.Sprint(size), mt, pct(cell.TLBFrac), mcycles(cell.Cycles))
			}
		}
	}
	return res
}
