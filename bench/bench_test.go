package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
)

// The tests run the benchmark's own code on small-scale programs, one
// rep each, so they fit the tier-1 time budget.

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// smallRun measures one suite at small scale with a single rep.
func smallRun(t *testing.T, name string, trace bool, seed uint64) report {
	t.Helper()
	s, err := newSuite(name, exp.Small, "..")
	if err != nil {
		t.Fatal(err)
	}
	return measure(config{reps: 1, seed: seed, trace: trace}, s)
}

// emitted runs printReport and returns the metric names it printed,
// from both the human-readable lines and the JSON line.
func emitted(t *testing.T, r report) (human, machine []string) {
	t.Helper()
	var buf bytes.Buffer
	line, err := printReport(&buf, r, config{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 1 && f[0] == "metric" {
			human = append(human, f[1])
		}
	}
	if last := lines[len(lines)-1]; last+"\n" != string(line) {
		t.Fatalf("last output line is not the result: %q", last)
	}
	var res struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
		t.Fatalf("result line lacks correct/attempted/failed: %s", line)
	}
	for k := range res.Metrics {
		machine = append(machine, k)
	}
	slices.Sort(human)
	slices.Sort(machine)
	return human, machine
}

// TestMetricNames checks that every printed name is well formed and
// that the code emits exactly the names BENCHMARK.json declares, in
// both modes.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range decl.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, suiteNames) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", wls, suiteNames)
	}
	for _, tc := range []struct {
		trace bool
		defs  []metricDef
		decl  []struct{ Name, Unit, Better string }
	}{
		{false, endToEnd, decl.EndToEnd},
		{true, perLayer, decl.PerLayer},
	} {
		var declared []string
		for _, m := range tc.decl {
			declared = append(declared, m.Name)
			i := slices.IndexFunc(tc.defs, func(d metricDef) bool { return d.name == m.Name })
			if i >= 0 && (tc.defs[i].unit != m.Unit || tc.defs[i].better != m.Better) {
				t.Errorf("%s: BENCHMARK.json says %s/%s, code %s/%s", m.Name, m.Unit, m.Better, tc.defs[i].unit, tc.defs[i].better)
			}
		}
		slices.Sort(declared)
		r := smallRun(t, "live-mtlb", tc.trace, 1)
		if !r.correct() {
			t.Fatalf("trace=%t run incorrect: %v", tc.trace, r.errs)
		}
		human, machine := emitted(t, r)
		for _, n := range human {
			if !metricName.MatchString(n) {
				t.Errorf("bad metric name %q", n)
			}
		}
		if !slices.Equal(human, declared) || !slices.Equal(machine, declared) {
			t.Errorf("trace=%t: emitted %v / %v, BENCHMARK.json declares %v", tc.trace, human, machine, declared)
		}
	}
}

// TestPlantedWrongResult checks that an output differing from its
// reference counts as a failed op.
func TestPlantedWrongResult(t *testing.T) {
	s, err := newSuite("live-mtlb", exp.Small, "..")
	if err != nil {
		t.Fatal(err)
	}
	x := newSession(1, s)
	x.rep(nil)
	x.rep(nil)
	if failed := x.check(); failed != 0 {
		t.Fatalf("clean run: %d failed: %v", failed, x.errs)
	}
	r := x.recs[x.keys[0]]
	r.outs[1].res.Instructions++
	failed := x.check()
	if rate := ratio(float64(failed), float64(x.attempted())); rate <= 0 {
		t.Fatalf("planted wrong result: error rate %v, want > 0", rate)
	}
}

// TestSeedsAgree checks that the op order a seed picks does not change
// any op's result.
func TestSeedsAgree(t *testing.T) {
	for _, name := range []string{"live-conv", "replay-mtlb"} {
		outs := make([]map[string]outcome, 2)
		for i, seed := range []uint64{1, 2} {
			s, err := newSuite(name, exp.Small, "..")
			if err != nil {
				t.Fatal(err)
			}
			if s.setup != nil {
				if err := s.setup(nil); err != nil {
					t.Fatal(err)
				}
			}
			x := newSession(seed, s)
			x.rep(nil)
			outs[i] = make(map[string]outcome)
			for k, r := range x.recs {
				if len(r.outs) != 1 {
					t.Fatalf("%s %s: %d outcomes", name, k, len(r.outs))
				}
				outs[i][k] = r.outs[0]
			}
		}
		if len(outs[0]) != len(outs[1]) {
			t.Fatalf("%s: op sets differ", name)
		}
		for k, o := range outs[0] {
			if outs[1][k] != o {
				t.Errorf("%s %s: seeds 1 and 2 give different results", name, k)
			}
		}
	}
}

// TestQuartiles pins the helpers to Python's statistics module, with
// which the spreads in recorded_runs.json are computed.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5.5, 1.25, 9, 2, 7.75}, 1.625, 5.5, 8.375},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.xs) != tc.med {
			t.Errorf("%v: got %v %v %v, want %v %v %v", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestLayerDrivers checks that every driver loop makes calls on a small
// em3d cell of the conventional machine, whose TLB misses.
func TestLayerDrivers(t *testing.T) {
	p := newProbe("test", 1)
	uniprocessorRun(sim.Default().WithTLB(64), mustWorkload("em3d", exp.Small), p)()
	if len(p.runs) != 1 {
		t.Fatalf("%d probe runs", len(p.runs))
	}
	r := p.runs[0]
	lc := driveLayers(r.cpu, r.sw.shim.rec.refs, p.timerNS, p.tr, p.span)
	if lc.refs == 0 || lc.misses == 0 || lc.events == 0 {
		t.Fatalf("driver calls: %d refs, %d misses, %d events", lc.refs, lc.misses, lc.events)
	}
	for name, ns := range map[string]int64{
		"tlb.lookup": lc.lookupNS, "vm.miss": lc.missNS, "tlb.insert": lc.insertNS,
		"ptable.lookup": lc.hptNS, "cache.access": lc.cacheNS, "mmc.event": lc.mmcNS,
		"vm.translate_data": lc.xlateNS, "mem.access": lc.memNS,
	} {
		if ns <= 0 {
			t.Errorf("%s: %d ns", name, ns)
		}
	}
	if got := uint64(lc.refs); got != r.sw.shim.refs() {
		t.Errorf("recorded %d of %d refs; a small run fits the recorder whole", got, r.sw.shim.refs())
	}
}

// TestEveryWorkload runs each workload once at small scale and checks
// its outputs pass.
func TestEveryWorkload(t *testing.T) {
	for _, name := range suiteNames {
		if name == "sweep-small" && testing.Short() {
			continue
		}
		r := smallRun(t, name, false, 3)
		if !r.correct() || r.attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d errors %v", name, r.correct(), r.attempted, r.errs)
		}
	}
}
