package exp

import (
	"fmt"
	"strings"

	"shadowtlb/internal/core"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/sim"
)

// Cell is the unit of experimental work: one workload run to completion
// on one fresh machine configuration at one scale. Every figure and
// table in this package is a reduction over completed cells, which lets
// a runner execute them in any order, in parallel, and — because many
// experiments share base systems — simulate each distinct cell exactly
// once per invocation.
type Cell struct {
	Cfg      sim.Config
	Workload string
	Scale    Scale
}

// NewCell builds a cell.
func NewCell(cfg sim.Config, workload string, s Scale) Cell {
	return Cell{Cfg: cfg, Workload: workload, Scale: s}
}

// Key returns the cell's canonical identity: two cells with equal keys
// denote the same simulation and may share one result. Every
// semantically meaningful Config field participates; Label is excluded
// because it is presentation only. TestCellKeyCoversConfig enforces that
// new Config fields are added here (or explicitly exempted).
func (c Cell) Key() string {
	cfg := c.Cfg
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", c.Workload, c.Scale)
	fmt.Fprintf(&b, "|dram=%d,order=%d,maxframes=%d",
		cfg.DRAMBytes, cfg.AllocOrder, cfg.MaxUserFrames)
	fmt.Fprintf(&b, "|tlb=%d,text=%d,ifetch=%d,nofast=%t",
		cfg.CPUTLBEntries, cfg.TextPages, cfg.IFetchPeriod, cfg.NoFastPath)
	if cfg.MTLB != nil {
		// The scheme participates normalized, so "" and the default
		// scheme name denote the same simulation and share one result;
		// on conventional systems the scheme is ignored by sim.New and
		// must not split keys.
		fmt.Fprintf(&b, "|mtlb=%d/%dw,scheme=%s",
			cfg.MTLB.Entries, cfg.MTLB.Ways, core.NormalizeScheme(cfg.Scheme))
	} else {
		b.WriteString("|mtlb=none")
	}
	fmt.Fprintf(&b, "|shadow=%v+%d|part=%v",
		cfg.ShadowSpace.Base, cfg.ShadowSpace.Size, cfg.Partition)
	fmt.Fprintf(&b, "|buddy=%t,nocheck=%t,streams=%d,banks=%d",
		cfg.UseBuddy, cfg.NoCheckCycle, cfg.StreamBuffers, cfg.DRAMBanks)
	fmt.Fprintf(&b, "|cache=%+v|bus=%+v|mmc=%+v|costs=%+v|hpt=%d",
		cfg.Cache, cfg.Bus, cfg.MMCTiming, cfg.Costs, cfg.HPTEntries)
	// The segment appears only on multicore configs so every legacy
	// uniprocessor key — and with it every cached result and golden —
	// stays byte-identical.
	if cfg.SMP != nil {
		fmt.Fprintf(&b, "|smp=%d/q%d/a%d", cfg.SMP.CPUs, cfg.SMP.Quantum, cfg.SMP.ArbSeed)
	}
	return b.String()
}

// SchemeLabel returns the cell's effective translation backend for
// telemetry labels: the normalized scheme name on MTLB-fitted systems,
// "none" on conventional ones (where the scheme field is ignored).
func (c Cell) SchemeLabel() string {
	if c.Cfg.MTLB == nil {
		return "none"
	}
	return core.NormalizeScheme(c.Cfg.Scheme)
}

// Simulate assembles a fresh system and runs the cell's workload on it.
// Simulations are deterministic: workloads draw from seeded RNGs and the
// system has no global state, so equal keys always yield equal results.
func (c Cell) Simulate() sim.Result {
	return c.SimulateObserved(nil)
}

// SimulateObserved runs the cell with an observability session attached
// to its fresh system. Observation never perturbs the simulation, so
// the result equals Simulate()'s; a nil session is exactly Simulate.
func (c Cell) SimulateObserved(o *obs.Obs) sim.Result {
	w, err := MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		panic(err)
	}
	if c.Cfg.SMP != nil {
		return sim.RunSMPObserved(c.Cfg, w, o)
	}
	return sim.RunObserved(c.Cfg, w, o)
}

// Runner executes cells on behalf of experiments. Implementations must
// be safe for concurrent use and must return the same result for cells
// with equal keys within one invocation. internal/exp/runner's Pool is
// the implementation: it parallelizes and shares cells across
// experiments.
type Runner interface {
	Result(Cell) sim.Result
}
