package exp

import (
	"fmt"

	"shadowtlb/internal/stats"
)

// SMPCPUCounts are the simulated processor counts of the multicore
// family: the uniprocessor reference plus two- and four-way machines.
var SMPCPUCounts = []int{1, 2, 4}

// SMPTLBEntries is the CPU TLB size of the multicore comparison — the
// smallest Figure 3 machine, where per-CPU TLB pressure and the shared
// MTLB's extra reach matter most.
const SMPTLBEntries = 64

// SMPCell is one (workload, mtlb, cpus) point of the multicore family.
type SMPCell struct {
	Workload string
	MTLB     bool
	CPUs     int
	// MachineCycles is the simulated wall clock: the slowest CPU's
	// completion time including barrier idling.
	MachineCycles uint64
	Speedup       float64 // vs the same config at 1 CPU
	TLBFrac       float64 // fraction of summed runtime in TLB handling
	MTLBHitRate   float64 // zero without an MTLB
	// Multicore overheads.
	IPIs           uint64
	BusStallCycles uint64
	BarrierCycles  uint64
	Imbalance      float64 // (max - min) charged CPU cycles / max
}

// SMPResult holds both tables of the multicore family.
type SMPResult struct {
	TableA *stats.Table // Figure 3-style: wall clock and parallel speedup
	TableB *stats.Table // Figure 4-style: sharing and coherence overheads
	Cells  []SMPCell
}

// Cell finds one comparison point; it panics if absent (bench
// programming error).
func (r SMPResult) Cell(workload string, mtlb bool, cpus int) SMPCell {
	for _, c := range r.Cells {
		if c.Workload == workload && c.MTLB == mtlb && c.CPUs == cpus {
			return c
		}
	}
	panic(fmt.Sprintf("exp: no smp cell %s/%v/%d", workload, mtlb, cpus))
}

// smpConfig builds the family's machine: the 64-entry front TLB, the
// paper's MTLB when fitted, and n CPUs.
func smpConfig(mtlb bool, cpus int) Cell {
	cfg := baseConfig().WithTLB(SMPTLBEntries)
	if mtlb {
		cfg = withMTLB(cfg)
	}
	return Cell{Cfg: cfg.WithSMP(cpus)}
}

// smpCells lists the family's simulations: the parallel radix and em3d
// ports plus the multiprogrammed mix, each with and without the MTLB,
// at every CPU count.
func smpCells(scale Scale) []Cell {
	var cells []Cell
	for _, name := range SMPWorkloadNames() {
		for _, mtlb := range []bool{false, true} {
			for _, cpus := range SMPCPUCounts {
				c := smpConfig(mtlb, cpus)
				c.Workload, c.Scale = name, scale
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// SMPOn runs the multicore family: radixp and em3dp (per-thread
// reference streams over one shared address space, with inter-processor
// shootdown IPIs on every remap) and the multiprogrammed mix (private
// address spaces time-sharing the bus, cache and MTLB), each at 1, 2
// and 4 CPUs with and without the paper's MTLB. Table A mirrors Figure
// 3's runtime accounting on the simulated wall clock — machine cycles,
// parallel speedup versus the same machine at one CPU, and the TLB-miss
// fraction; Table B breaks out what multicore sharing costs and buys —
// MTLB hit rate, shootdown IPIs delivered, bus-contention stalls,
// barrier idling and load imbalance.
func SMPOn(r Runner, scale Scale) SMPResult {
	ta := stats.NewTable(
		"SMP (A): wall clock and speedup, CPU TLB = 64 ["+scale.String()+" scale]",
		"program", "config", "cpus", "machine cycles", "speedup", "tlb-miss time", "bar")
	tb := stats.NewTable(
		"SMP (B): sharing and coherence overheads ["+scale.String()+" scale]",
		"program", "config", "cpus", "mtlb hit rate", "ipis", "bus stall", "barrier idle", "imbalance")
	res := SMPResult{TableA: ta, TableB: tb}

	for _, name := range SMPWorkloadNames() {
		for _, mtlb := range []bool{false, true} {
			var base uint64
			for _, cpus := range SMPCPUCounts {
				c := smpConfig(mtlb, cpus)
				c.Workload, c.Scale = name, scale
				run := r.Result(c)
				if cpus == SMPCPUCounts[0] {
					base = run.MachineCycles
				}
				cell := SMPCell{
					Workload:       name,
					MTLB:           mtlb,
					CPUs:           cpus,
					MachineCycles:  run.MachineCycles,
					Speedup:        float64(base) / float64(run.MachineCycles),
					TLBFrac:        run.TLBFraction(),
					MTLBHitRate:    run.MTLBHitRate,
					IPIs:           run.IPIs,
					BusStallCycles: run.BusStallCycles,
					BarrierCycles:  run.BarrierCycles,
				}
				if run.MaxCPUCycles > 0 {
					cell.Imbalance = float64(run.MaxCPUCycles-run.MinCPUCycles) /
						float64(run.MaxCPUCycles)
				}
				res.Cells = append(res.Cells, cell)
				ta.AddRow(name, c.Cfg.Label, fmt.Sprintf("%d", cpus),
					mcycles(cell.MachineCycles),
					fmt.Sprintf("%.2fx", cell.Speedup), pct(cell.TLBFrac),
					stats.Bar(cell.Speedup/float64(SMPCPUCounts[len(SMPCPUCounts)-1]), 40))
				hit := "-"
				if mtlb {
					hit = fmt.Sprintf("%.4f", cell.MTLBHitRate)
				}
				tb.AddRow(name, c.Cfg.Label, fmt.Sprintf("%d", cpus), hit,
					fmt.Sprintf("%d", cell.IPIs), mcycles(cell.BusStallCycles),
					mcycles(cell.BarrierCycles), pct(cell.Imbalance))
			}
		}
	}
	return res
}
