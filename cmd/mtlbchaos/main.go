// Command mtlbchaos is the chaos harness: it runs every registered
// experiment cell under randomized-but-deterministic fault plans
// (forced page-outs, shootdown storms, mid-remap purges, DRAM fill
// delays — see internal/faultinject) with the machine invariant
// catalogue auditing each run (internal/invariant). Multicore cells run
// under multicore plans — shootdown storms striking random CPU subsets
// at lockstep round boundaries — with the per-CPU smp.memo and
// shootdown.ipi rules auditing every processor. Because every injected
// fault is semantically invisible, any invariant violation is a real
// bug; the tool prints the plan seed that provoked it, and the same
// seed reproduces the identical schedule.
//
//	mtlbchaos                    # every registered cell × 3 plans
//	mtlbchaos -cells 20 -plans 3 # bounded run for CI
//	mtlbchaos -seed 0xbeef       # a different deterministic universe
//
// -plant is the harness's self-test: after one clean run it inserts a
// TLB entry no page table backs, then re-audits. The tool must FAIL —
// exiting 1 with the violation and its seed — proving a real
// corruption would not pass silently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/faultinject"
	"shadowtlb/internal/invariant"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/tlb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cellsN  = fs.Int("cells", 0, "max distinct cells to exercise (0 = all registered)")
		plans   = fs.Int("plans", 3, "fault plans per cell")
		seed    = fs.Uint64("seed", 1, "base seed; every plan seed derives from it")
		scale   = fs.String("scale", "small", "workload scale: paper or small")
		verbose = fs.Bool("v", false, "log every run, not just failures")
		plant   = fs.Bool("plant", false, "plant a deliberate violation (self-test: the run must FAIL)")
		trace   = fs.String("trace", "", "write one span per run to this JSON-lines file, with every injected fault as a span event")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := exp.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbchaos: %v\n", err)
		return 2
	}
	var tracer *obs.Tracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(stderr, "mtlbchaos: %v\n", err)
			return 1
		}
		defer f.Close()
		tracer = obs.NewTracer("mtlbchaos", f, 0)
	}

	cells := registeredCells(sc)
	if *cellsN > 0 && len(cells) > *cellsN {
		cells = cells[:*cellsN]
	}
	if !*plant {
		cells = ensureSchemeCoverage(cells, sc)
		cells = ensureSMPCoverage(cells, sc)
	}
	if len(cells) == 0 {
		fmt.Fprintln(stderr, "mtlbchaos: no cells registered")
		return 1
	}
	if *plant {
		cells = cells[:1]
		*plans = 1
	}

	var failures, runs int
	var tot totals
	for ci, c := range cells {
		for pi := 0; pi < *plans; pi++ {
			runs++
			var (
				vs       []invariant.Violation
				err      error
				plan     fmt.Stringer
				injected uint64
			)
			if c.Cfg.SMP != nil {
				p := faultinject.NewSMP(mixSeed(*seed, ci, pi))
				plan = p
				var inj *faultinject.SMPInjector
				vs, inj, err = runOneSMP(c, p, tracer)
				if inj != nil {
					tot.addSMP(inj)
					injected = inj.Injected()
				}
			} else {
				p := faultinject.New(mixSeed(*seed, ci, pi))
				plan = p
				var inj *faultinject.Injector
				vs, inj, err = runOne(c, p, tracer, *plant)
				if inj != nil {
					tot.add(inj)
					injected = inj.Injected()
				}
			}
			if err != nil {
				failures++
				fmt.Fprintf(stderr, "FAIL cell=%s workload=%s: %v\n  plan: %s\n  reproduce: -seed %d (cell %d, plan %d)\n",
					c.Cfg.Label, c.Workload, err, plan, *seed, ci, pi)
				continue
			}
			if len(vs) > 0 {
				failures++
				fmt.Fprintf(stderr, "FAIL cell=%s workload=%s: %d invariant violation(s)\n  plan: %s\n  reproduce: -seed %d (cell %d, plan %d)\n",
					c.Cfg.Label, c.Workload, len(vs), plan, *seed, ci, pi)
				for _, v := range vs {
					fmt.Fprintf(stderr, "  %s\n", v)
				}
				continue
			}
			if *verbose {
				fmt.Fprintf(stdout, "ok   cell=%s workload=%s plan=[%s] injected=%d\n",
					c.Cfg.Label, c.Workload, plan, injected)
			}
		}
	}
	fmt.Fprintf(stdout, "mtlbchaos: %d cells × %d plans: %d runs, %d failed; injected swap-outs=%d shootdowns=%d fill-delays=%d mid-remap-purges=%d storms=%d cpu-purges=%d\n",
		len(cells), *plans, runs, failures, tot.swapOuts, tot.shootdowns, tot.fillDelays, tot.midRemap, tot.storms, tot.cpuPurges)
	if failures > 0 {
		return 1
	}
	return 0
}

// runOne executes one cell under one plan with the invariant checker in
// record mode, returning every violation the run accumulated (including
// the final whole-machine audit at run end). A panic — e.g. from
// machine state corrupted badly enough to break the simulator itself —
// is reported as the error. With plant set, a TLB entry no page table
// backs is inserted after the run and the catalogue is re-audited: the
// violations returned then must be non-empty or the harness is blind.
// With a tracer, the run is one span and each injected fault lands on
// it as a timestamped "fault" event, so a chaos trace shows exactly
// where plans fired.
func runOne(c exp.Cell, plan faultinject.Plan, tracer *obs.Tracer, plant bool) (vs []invariant.Violation, inj *faultinject.Injector, err error) {
	span := tracer.StartSpan("chaos.run", obs.SpanContext{})
	span.SetAttr("workload", c.Workload)
	span.SetAttr("label", c.Cfg.Label)
	span.SetAttr("plan", plan.String())
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.SetAttr("violations", fmt.Sprint(len(vs)))
		span.End()
	}()
	s := sim.New(c.Cfg)
	inj = faultinject.Attach(s, plan)
	if tracer != nil {
		inj.OnFault = func(kind string) { span.Event("fault", "kind", kind) }
	}
	chk := invariant.Attach(s, invariant.Options{}) // record, don't panic
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		return nil, inj, err
	}
	s.Run(w)
	if plant {
		// A valid-looking user mapping at a virtual page the process
		// never mapped: structurally fine, backed by nothing.
		s.CPUTLB.Insert(tlb.Entry{
			Valid:  true,
			Class:  arch.Page4K,
			Tag:    0x7fffdead000,
			Target: uint64(arch.FrameToPAddr(3)),
		})
		return append(chk.Violations(), invariant.Check(s)...), inj, nil
	}
	return chk.Violations(), inj, nil
}

// runOneSMP executes one multicore cell under one multicore plan with
// the invariant checker in record mode — the SMP twin of runOne. The
// injector attaches first, so the checker's quantum-boundary audits see
// the state each storm leaves behind on every CPU.
func runOneSMP(c exp.Cell, plan faultinject.SMPPlan, tracer *obs.Tracer) (vs []invariant.Violation, inj *faultinject.SMPInjector, err error) {
	span := tracer.StartSpan("chaos.run", obs.SpanContext{})
	span.SetAttr("workload", c.Workload)
	span.SetAttr("label", c.Cfg.Label)
	span.SetAttr("plan", plan.String())
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.SetAttr("violations", fmt.Sprint(len(vs)))
		span.End()
	}()
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		return nil, nil, err
	}
	s := sim.NewSMP(c.Cfg, w)
	inj = faultinject.AttachSMP(s, plan)
	if tracer != nil {
		inj.OnFault = func(kind string) { span.Event("fault", "kind", kind) }
	}
	chk := invariant.AttachSMP(s, invariant.Options{}) // record, don't panic
	s.Run()
	return chk.Violations(), inj, nil
}

// registeredCells collects every declared cell across the experiment
// registry, deduplicated by canonical key, in registration order —
// the same population the runner pool would simulate for -exp all.
func registeredCells(sc exp.Scale) []exp.Cell {
	var cells []exp.Cell
	seen := make(map[string]struct{})
	for _, d := range exp.Descriptors() {
		if d.Cells == nil {
			continue // bespoke experiments drive private systems
		}
		for _, c := range d.Cells(sc) {
			k := c.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			cells = append(cells, c)
		}
	}
	return cells
}

// ensureSchemeCoverage guarantees the sweep audits every registered
// translation backend (the translator.coherent invariant in
// particular), even when -cells bounds the run below the point in
// registration order where the schemes family's cells appear: one
// canonical MTLB-fitted cell per still-uncovered scheme is appended.
func ensureSchemeCoverage(cells []exp.Cell, sc exp.Scale) []exp.Cell {
	covered := make(map[string]bool)
	for _, c := range cells {
		if c.Cfg.MTLB != nil {
			covered[core.NormalizeScheme(c.Cfg.Scheme)] = true
		}
	}
	for _, scheme := range core.SchemeNames() {
		if covered[scheme] {
			continue
		}
		cfg := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig()).WithScheme(scheme)
		cells = append(cells, exp.NewCell(cfg, "em3d", sc))
	}
	return cells
}

// ensureSMPCoverage guarantees the sweep audits the multicore executor
// — the smp.memo and shootdown.ipi invariants in particular — even when
// -cells bounds the run below the smp family's position in registration
// order: one shared-space and one multiprogrammed multicore cell are
// appended if no multicore cell survived the bound.
func ensureSMPCoverage(cells []exp.Cell, sc exp.Scale) []exp.Cell {
	for _, c := range cells {
		if c.Cfg.SMP != nil {
			return cells
		}
	}
	cfg := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	return append(cells,
		exp.NewCell(cfg.WithSMP(4), "radixp", sc),
		exp.NewCell(cfg.WithSMP(2), "mix", sc))
}

// mixSeed derives one plan seed from the base seed and the (cell, plan)
// coordinates, splitmix-style, so every run gets an independent but
// reproducible schedule.
func mixSeed(base uint64, ci, pi int) uint64 {
	x := base + uint64(ci)*0x9E3779B97F4A7C15 + uint64(pi)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// totals accumulates injection counters across runs, so the summary
// line proves the plans actually fired.
type totals struct {
	swapOuts, shootdowns, fillDelays, midRemap uint64
	storms, cpuPurges                          uint64
}

func (t *totals) add(inj *faultinject.Injector) {
	t.swapOuts += inj.SwapOuts
	t.shootdowns += inj.Shootdowns
	t.fillDelays += inj.FillDelays
	t.midRemap += inj.MidRemapPurges
}

func (t *totals) addSMP(inj *faultinject.SMPInjector) {
	t.swapOuts += inj.SwapOuts
	t.fillDelays += inj.FillDelays
	t.storms += inj.Storms
	t.cpuPurges += inj.CPUPurges
}
