package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/workload"
	"shadowtlb/internal/workload/radix"
)

// -update rewrites the result golden from the current simulator:
//
//	go test ./internal/sim -run ResultGolden -update
var update = flag.Bool("update", false, "rewrite testdata/results_small.golden with the current results")

// goldenCase is one entry of the result golden: a named run and
// everything it measured.
type goldenCase struct {
	Case   string
	Result json.RawMessage
}

// multiResult is what a time-sliced run measures: the machine's total
// and per-category cycles, and each process's share and dispatches.
type multiResult struct {
	Total        stats.Cycles
	Breakdown    stats.Breakdown
	Instructions uint64
	Procs        []multiProc
}

type multiProc struct {
	Workload      string
	Cycles        stats.Cycles
	TLBMissCycles stats.Cycles
	Switches      uint64
}

func makeWorkload(t *testing.T, name string, s exp.Scale) workload.Workload {
	t.Helper()
	w, err := exp.MakeWorkload(name, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestResultGolden pins every modelled number exactly. The rendered
// experiment goldens round cycles to three significant figures, so a
// lost timer tick or a miscounted instruction would not show there;
// this golden holds whole results as JSON:
//   - each paper workload at small scale on tlb64 and on
//     tlb64+mtlb128/2w;
//   - the 18 small cells of the smp experiment: each multicore workload
//     with and without the MTLB at every CPU count, on tlb64;
//   - FuzzSMPSchedule's sort under four perturbed schedules (quantum,
//     arbitration seed and CPU count), which move timing but not the
//     program;
//   - compress and gcc time-sliced on one tlb64+mtlb128/2w machine
//     under a 200,000-cycle quantum;
//   - em3d at paper scale on tlb64, which crosses about 100 timer ticks
//     (skipped under -short).
//
// A simulator-speed change must leave the file byte-identical. A change
// that means to move a modelled number re-blesses it with -update and
// says why in CHANGES.md.
func TestResultGolden(t *testing.T) {
	base := sim.Default().WithTLB(64)
	mtlb := base.WithMTLB(core.DefaultMTLBConfig())

	var got []goldenCase
	add := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenCase{Case: name, Result: b})
	}

	for _, name := range []string{"compress", "vortex", "radix", "em3d", "gcc"} {
		for _, cfg := range []sim.Config{base, mtlb} {
			add(name+" small "+cfg.Label, sim.RunOn(cfg, makeWorkload(t, name, exp.Small)))
		}
	}

	for _, name := range exp.SMPWorkloadNames() {
		for _, cfg := range []sim.Config{base, mtlb} {
			for _, cpus := range exp.SMPCPUCounts {
				smp := cfg.WithSMP(cpus)
				add(name+" small "+smp.Label, sim.RunSMP(smp, makeWorkload(t, name, exp.Small)))
			}
		}
	}
	for _, p := range []sim.SMPParams{
		{CPUs: 3, Quantum: 16, ArbSeed: 0},
		{CPUs: 4, Quantum: 16, ArbSeed: 1},
		{CPUs: 3, Quantum: 23, ArbSeed: 0xDEADBEEF},
		{CPUs: 4, Quantum: 1024, ArbSeed: 1},
	} {
		cfg := mtlb
		cfg.SMP = &p
		w := radix.NewParallel(radix.Config{Keys: 1 << 12, Radix: 256})
		add(fmt.Sprintf("radixp 4096 keys %s cpus %d quantum %d seed %#x", cfg.Label, p.CPUs, p.Quantum, p.ArbSeed),
			sim.RunSMP(cfg, w))
	}

	ms := sim.NewMulti(mtlb, []workload.Workload{
		makeWorkload(t, "compress", exp.Small),
		makeWorkload(t, "gcc", exp.Small),
	}, 200_000)
	mr := multiResult{Total: ms.Run(), Breakdown: ms.CPU.Breakdown, Instructions: ms.CPU.Instructions}
	for _, p := range ms.Procs {
		mr.Procs = append(mr.Procs, multiProc{p.Workload.Name(), p.Cycles, p.TLBMissCycles, p.Switches})
	}
	add("compress+gcc small "+mtlb.Label+" quantum 200000", mr)

	const paperCase = "em3d paper tlb64"
	if !testing.Short() {
		add(paperCase, sim.RunOn(base, makeWorkload(t, "em3d", exp.Paper)))
	}

	golden := filepath.Join("testdata", "results_small.golden")
	if *update {
		if testing.Short() {
			t.Fatal("-update needs every case: drop -short")
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	wantBy := map[string]json.RawMessage{}
	for _, c := range want {
		wantBy[c.Case] = c.Result
	}
	for _, c := range got {
		w, ok := wantBy[c.Case]
		if !ok {
			t.Errorf("%s: not in the golden", c.Case)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), c.Result) {
			t.Errorf("%s diverged from the golden (re-bless with -update if intended)\n got: %s\nwant: %s",
				c.Case, c.Result, compact.Bytes())
		}
		delete(wantBy, c.Case)
	}
	for name := range wantBy {
		if name != paperCase || !testing.Short() {
			t.Errorf("%s: in the golden but not run", name)
		}
	}
}

// TestSMPOneCPUMatchesUniprocessor referees the multicore executor
// against the uniprocessor machine: on one CPU, every paper workload
// must measure exactly what RunOn measures, on every field both
// report, and its machine clock must be its breakdown's total.
func TestSMPOneCPUMatchesUniprocessor(t *testing.T) {
	base := sim.Default().WithTLB(64)
	for _, name := range exp.WorkloadNames() {
		for _, cfg := range []sim.Config{base, base.WithMTLB(core.DefaultMTLBConfig())} {
			want := sim.RunOn(cfg, makeWorkload(t, name, exp.Small))
			got := sim.RunSMP(cfg.WithSMP(1), makeWorkload(t, name, exp.Small))
			if got.MachineCycles != uint64(got.Breakdown.Total()) {
				t.Errorf("%s %s: machine cycles %d, breakdown total %d",
					name, cfg.Label, got.MachineCycles, got.Breakdown.Total())
			}
			got.Label = want.Label
			got.CPUs, got.MachineCycles, got.IPIs = 0, 0, 0
			got.BusStallCycles, got.BarrierCycles, got.MaxCPUCycles, got.MinCPUCycles = 0, 0, 0, 0
			if got != want {
				t.Errorf("%s %s: one CPU differs from the uniprocessor\n got: %+v\nwant: %+v",
					name, cfg.Label, got, want)
			}
		}
	}
}
