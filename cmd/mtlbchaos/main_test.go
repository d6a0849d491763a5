package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/obs"
)

// TestChaosCleanRun runs a bounded chaos sweep: a handful of cells,
// several plans each, and expects zero invariant violations with faults
// demonstrably injected.
func TestChaosCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds-long; skipped under -short")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-cells", "4", "-plans", "3"}, &out, &errOut); code != 0 {
		t.Fatalf("clean chaos run exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if errOut.Len() > 0 {
		t.Fatalf("clean chaos run produced failures:\n%s", errOut.String())
	}
	sum := out.String()
	if !strings.Contains(sum, "0 failed") {
		t.Fatalf("summary does not report 0 failed:\n%s", sum)
	}
	if strings.Contains(sum, "shootdowns=0 ") {
		t.Fatalf("no shootdowns injected — plans did not fire:\n%s", sum)
	}
}

// TestTraceRecordsFaultEvents pins what -trace writes: one chaos.run
// span per run, each carrying its injected faults as "fault" events.
func TestTraceRecordsFaultEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds-long; skipped under -short")
	}
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	var out, errOut strings.Builder
	if code := run([]string{"-cells", "2", "-plans", "1", "-trace", path}, &out, &errOut); code != 0 {
		t.Fatalf("traced chaos run exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpansJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(" %d runs,", len(spans)); len(spans) == 0 || !strings.Contains(out.String(), want) {
		t.Fatalf("trace holds %d spans; summary does not report that many runs:\n%s", len(spans), out.String())
	}
	faults := 0
	for _, s := range spans {
		if s.Name != "chaos.run" || s.Service != "mtlbchaos" {
			t.Errorf("span %s from %s, want chaos.run from mtlbchaos", s.Name, s.Service)
		}
		for _, ev := range s.Events {
			if ev.Name != "fault" || ev.Attrs["kind"] == "" {
				t.Errorf("span %s event %+v, want a fault with a kind", s.Attrs["label"], ev)
			}
			faults++
		}
	}
	if faults == 0 {
		t.Error("no fault events recorded")
	}
}

// TestSchemeCoverageGuaranteed pins the sweep's backend coverage: even
// a -cells bound small enough to exclude the schemes family must still
// audit every registered translation backend, so translator.coherent
// runs against all of them under fault plans.
func TestSchemeCoverageGuaranteed(t *testing.T) {
	cells := registeredCells(exp.Small)[:2]
	cells = ensureSchemeCoverage(cells, exp.Small)
	covered := make(map[string]bool)
	for _, c := range cells {
		if c.Cfg.MTLB != nil {
			covered[core.NormalizeScheme(c.Cfg.Scheme)] = true
		}
	}
	for _, scheme := range core.SchemeNames() {
		if !covered[scheme] {
			t.Errorf("scheme %q not covered by the bounded sweep", scheme)
		}
	}
	// A full registry walk already contains every backend (the schemes
	// family registers last): nothing may be appended then.
	full := registeredCells(exp.Small)
	if got := ensureSchemeCoverage(full, exp.Small); len(got) != len(full) {
		t.Errorf("full sweep grew from %d to %d cells", len(full), len(got))
	}
}

// TestChaosSchemeSweepClean runs each non-default backend's canonical
// cell under fault plans and expects zero invariant violations — the
// chaos-side proof that the new backends survive shootdown storms,
// forced page-outs and mid-remap purges.
func TestChaosSchemeSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds-long; skipped under -short")
	}
	// -cells 1 keeps only one registry cell; coverage appending then
	// adds one cell per backend, so every scheme runs all plans.
	var out, errOut strings.Builder
	if code := run([]string{"-cells", "1", "-plans", "2", "-seed", "11"}, &out, &errOut); code != 0 {
		t.Fatalf("scheme chaos sweep exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if errOut.Len() > 0 {
		t.Fatalf("scheme chaos sweep produced failures:\n%s", errOut.String())
	}
}

// TestChaosSMPSweepClean runs the multicore coverage cells under
// multicore fault plans — shootdown storms striking random CPU subsets
// at executor round boundaries — and expects zero violations of the
// per-CPU smp.memo and shootdown.ipi rules, with storms demonstrably
// delivered.
func TestChaosSMPSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds-long; skipped under -short")
	}
	// -cells 1 keeps only one registry cell; SMP coverage appending then
	// adds the shared-space and multiprogrammed multicore cells.
	var out, errOut strings.Builder
	if code := run([]string{"-cells", "1", "-plans", "2", "-seed", "23"}, &out, &errOut); code != 0 {
		t.Fatalf("multicore chaos sweep exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if errOut.Len() > 0 {
		t.Fatalf("multicore chaos sweep produced failures:\n%s", errOut.String())
	}
	sum := out.String()
	if strings.Contains(sum, "storms=0 ") {
		t.Fatalf("no storms injected — multicore plans did not fire:\n%s", sum)
	}
}

// TestSMPCoverageGuaranteed pins the sweep's multicore coverage: a
// -cells bound that excludes the smp family must still audit the
// multicore executor, and a full walk (which includes it) gains nothing.
func TestSMPCoverageGuaranteed(t *testing.T) {
	cells := ensureSMPCoverage(registeredCells(exp.Small)[:2], exp.Small)
	var shared, multi bool
	for _, c := range cells {
		if c.Cfg.SMP == nil {
			continue
		}
		switch c.Workload {
		case "radixp", "em3dp":
			shared = true
		case "mix":
			multi = true
		}
	}
	if !shared || !multi {
		t.Errorf("bounded sweep lacks multicore coverage (shared=%v multi=%v)", shared, multi)
	}
	full := registeredCells(exp.Small)
	if got := ensureSMPCoverage(full, exp.Small); len(got) != len(full) {
		t.Errorf("full sweep grew from %d to %d cells", len(full), len(got))
	}
}

// TestChaosPlantedViolationCaught is the harness self-test: a planted
// unbacked TLB entry must fail the run, naming the rule and the
// reproducing seed. If this passes trivially the whole harness is
// blind.
func TestChaosPlantedViolationCaught(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-plant", "-seed", "7"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("planted violation: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	report := errOut.String()
	if !strings.Contains(report, "tlb.backed") {
		t.Errorf("report does not name the violated rule:\n%s", report)
	}
	if !strings.Contains(report, "-seed 7") {
		t.Errorf("report does not carry the reproducing seed:\n%s", report)
	}
}

// TestMixSeedDeterministic pins the seed mixer: identical coordinates
// must give identical plans across runs and hosts, or a reported seed
// would not reproduce.
func TestMixSeedDeterministic(t *testing.T) {
	a, b := mixSeed(1, 3, 2), mixSeed(1, 3, 2)
	if a != b {
		t.Fatalf("mixSeed not deterministic: %#x vs %#x", a, b)
	}
	if mixSeed(1, 3, 2) == mixSeed(1, 2, 3) {
		t.Fatalf("mixSeed collides across coordinates")
	}
}
