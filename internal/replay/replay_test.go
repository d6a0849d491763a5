package replay

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
)

// paperWorkloads are the five paper workloads the differential suite
// proves bit-identical replay for.
var paperWorkloads = []string{"compress", "vortex", "radix", "em3d", "gcc"}

func testConfigs() map[string]sim.Config {
	return map[string]sim.Config{
		"base": sim.Default().WithTLB(64),
		"mtlb": sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig()),
		"no-fast": func() sim.Config {
			c := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
			c.NoFastPath = true
			return c
		}(),
	}
}

// TestReplayMatchesLive is the differential suite: for every paper
// workload and configuration, a live run, a live-captured replay, and a
// trace-file round-trip replay must produce bit-identical results —
// every counter, rate and cycle breakdown in sim.Result.
func TestReplayMatchesLive(t *testing.T) {
	for cfgName, cfg := range testConfigs() {
		for _, name := range paperWorkloads {
			w, err := exp.MakeWorkload(name, exp.Small)
			if err != nil {
				t.Fatal(err)
			}
			liveRes, p := Record(cfg, w)

			// Path 1: live capture -> compiled program -> replay.
			eng := NewEngine(p)
			repRes := sim.RunOn(cfg, eng)
			if repRes != liveRes {
				t.Errorf("%s/%s: captured replay diverged:\nlive:   %+v\nreplay: %+v",
					cfgName, name, liveRes, repRes)
			}

			// Path 2: trace v1 file round-trip -> compiled program.
			w2, err := exp.MakeWorkload(name, exp.Small)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tw, err := trace.NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			fileRes := sim.RunOn(cfg, TraceRecording(w2, tw))
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			if fileRes != liveRes {
				t.Errorf("%s/%s: recording perturbed the live run:\nplain:    %+v\nrecorded: %+v",
					cfgName, name, liveRes, fileRes)
			}
			p2, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: Load: %v", cfgName, name, err)
			}
			p2.SbrkSuper, p2.Workload = w.SbrkSuperpages(), name
			fileRep := sim.RunOn(cfg, NewEngine(p2))
			if fileRep != liveRes {
				t.Errorf("%s/%s: trace-file replay diverged:\nlive:   %+v\nreplay: %+v",
					cfgName, name, liveRes, fileRep)
			}
		}
	}
}

// -update rewrites the host-work golden from the current counters:
//
//	go test ./internal/replay -run HostWork -update
var update = flag.Bool("update", false, "rewrite testdata/work_small.golden with the current counts")

// smallWorkload builds a registered workload at small scale.
func smallWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := exp.MakeWorkload(name, exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestHostWorkGolden pins the simulator's host-work counters
// (cpu.HostWork) exactly, at small scale:
//   - each paper workload run live on tlb64 and on tlb64+mtlb128/2w;
//   - each replayed on both configs from one recording made on the
//     MTLB config;
//   - em3dp on four CPUs, run at GOMAXPROCS 1 and at NumCPU, which
//     must agree on one line.
//
// The counts depend on the code and the cell, never on the host, so a
// diff means the engines now do a different amount of work: a change
// that means it re-blesses with -update and says why in CHANGES.md.
func TestHostWorkGolden(t *testing.T) {
	base := sim.Default().WithTLB(64)
	mtlb := base.WithMTLB(core.DefaultMTLBConfig())
	var got strings.Builder
	for _, name := range paperWorkloads {
		_, p := Record(mtlb, smallWorkload(t, name))
		for _, cfg := range []sim.Config{base, mtlb} {
			for _, run := range []struct {
				mode string
				w    workload.Workload
			}{{"live", smallWorkload(t, name)}, {"replay", NewEngine(p)}} {
				s := sim.New(cfg)
				s.Run(run.w)
				fmt.Fprintf(&got, "%s %s %s: %s\n", run.mode, name, cfg.Label, cpu.HostWork(s.CPU))
			}
		}
	}

	smp := mtlb.WithSMP(4)
	var smpLine string
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		s := sim.NewSMP(smp, smallWorkload(t, "em3dp"))
		s.Run()
		runtime.GOMAXPROCS(prev)
		line := fmt.Sprintf("live em3dp %s: %s\n", smp.Label, cpu.HostWork(s.CPUs...))
		if smpLine != "" && line != smpLine {
			t.Errorf("GOMAXPROCS %d changed the host work:\n%swant\n%s", procs, line, smpLine)
		}
		smpLine = line
	}
	got.WriteString(smpLine)

	golden := filepath.Join("testdata", "work_small.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("host work diverged from golden (re-bless with -update if intended)\n--- got ---\n%s--- want ---\n%s",
			got.String(), want)
	}
}

// TestReplayBatchedVsExact pins the batched StreamCols loop against the
// exact per-reference fallback (NoFastPath forces it): identical
// programs replayed both ways must agree on every counter. This is the
// direct check that batching is an optimization, not a semantic change.
func TestReplayBatchedVsExact(t *testing.T) {
	fast := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	slow := fast
	slow.NoFastPath = true
	for _, name := range paperWorkloads {
		w, err := exp.MakeWorkload(name, exp.Small)
		if err != nil {
			t.Fatal(err)
		}
		_, p := Record(fast, w)
		batched := sim.RunOn(fast, NewEngine(p))
		exact := sim.RunOn(slow, NewEngine(p))
		if batched != exact {
			t.Errorf("%s: batched vs exact diverged:\nbatched: %+v\nexact:   %+v", name, batched, exact)
		}
	}
}

// TestEngineFallbackPaths drives the engine through every delivery path
// — ColStreamer, Streamer, and plain per-ref Env — against the
// functional memory environment and checks the functional outcome
// (reference count) matches.
func TestEngineFallbackPaths(t *testing.T) {
	cfg := sim.Default().WithTLB(64)
	w, err := exp.MakeWorkload("radix", exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	_, p := Record(cfg, w)

	refs := func(env interface {
		workload.Env
		seen() uint64
	}) uint64 {
		NewEngine(p).Run(env)
		return env.seen()
	}
	perRef := refs(&countEnv{})
	if perRef != uint64(p.Refs()) {
		t.Fatalf("per-ref delivery saw %d refs, program has %d", perRef, p.Refs())
	}
	if n := refs(&streamEnv{countEnv{}}); n != perRef {
		t.Errorf("Streamer delivery saw %d refs, per-ref saw %d", n, perRef)
	}
	if n := refs(&colsEnv{countEnv{}}); n != perRef {
		t.Errorf("ColStreamer delivery saw %d refs, per-ref saw %d", n, perRef)
	}
}

// countEnv counts references delivered through the plain Env interface.
type countEnv struct {
	refs uint64
	next arch.VAddr
}

func (e *countEnv) Load(arch.VAddr, int) uint64   { e.refs++; return 0 }
func (e *countEnv) Store(arch.VAddr, int, uint64) { e.refs++ }
func (e *countEnv) Step(int)                      {}
func (e *countEnv) Sbrk(n uint64) arch.VAddr      { v := e.next; e.next += arch.VAddr(n); return v }
func (e *countEnv) Remap(arch.VAddr, uint64) bool { return false }
func (e *countEnv) AllocRegion(_ string, n uint64) arch.VAddr {
	return e.Sbrk(n)
}
func (e *countEnv) AllocAligned(_ string, n, _, _ uint64) arch.VAddr {
	return e.Sbrk(n)
}
func (e *countEnv) seen() uint64 { return e.refs }

// streamEnv adds the Streamer batch path.
type streamEnv struct{ countEnv }

func (e *streamEnv) Stream(refs []workload.Ref) { e.refs += uint64(len(refs)) }

// colsEnv adds the ColStreamer column path.
type colsEnv struct{ countEnv }

func (e *colsEnv) StreamCols(cols workload.RefCols) { e.refs += uint64(cols.Len()) }

// TestRunPartition checks the compiled run tables of every paper
// workload. Runs partition each chunk's refs in order, within the page
// and cycle bounds, and their tables are exact-size. Each run's
// footprint is exactly the lines its references touch and store to:
// every such line once, no other. And every span Engine.Run hands a
// column consumer carries exactly the runs covering it, as runCols
// slices them.
func TestRunPartition(t *testing.T) {
	cfg := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	for _, name := range paperWorkloads {
		w, err := exp.MakeWorkload(name, exp.Small)
		if err != nil {
			t.Fatal(err)
		}
		_, p := Record(cfg, w)
		for ci, c := range p.chunks {
			if cap(c.runs) != len(c.runs) || cap(c.runVPN) != len(c.runVPN) || cap(c.runLines) != len(c.runLines) {
				t.Fatalf("%s chunk %d: run tables not exact-size", name, ci)
			}
			var next, page, line uint32
			for ri, r := range c.runs {
				where := fmt.Sprintf("%s chunk %d run %d", name, ci, ri)
				if r.Start != next || r.Page != page || r.Line != line {
					t.Fatalf("%s: at ref/page/line %d/%d/%d, want %d/%d/%d",
						where, r.Start, r.Page, r.Line, next, page, line)
				}
				checkRun(t, where, c, r)
				next += uint32(r.Count)
				page += uint32(r.NPages)
				line += uint32(r.NLines)
			}
			if int(next) != len(c.vpn) || int(page) != len(c.runVPN) || int(line) != len(c.runLines) {
				t.Fatalf("%s chunk %d: runs cover %d of %d refs, %d of %d pages, %d of %d lines", name, ci,
					next, len(c.vpn), page, len(c.runVPN), line, len(c.runLines))
			}
		}
		env := &spanEnv{t: t, name: name}
		NewEngine(p).Run(env)
		if env.refs != uint64(p.Refs()) {
			t.Fatalf("%s: spans carried %d of %d refs", name, env.refs, p.Refs())
		}
	}
}

// checkRun holds run r of chunk c against its references, recomputed
// from the columns.
func checkRun(t *testing.T, where string, c *chunk, r workload.RefRun) {
	t.Helper()
	if r.Count == 0 || r.NPages == 0 || int(r.NPages) > workload.RunPages {
		t.Fatalf("%s: %d refs over %d pages", where, r.Count, r.NPages)
	}
	type lineKey struct {
		vpn uint32
		li  uint64
	}
	want := map[lineKey]bool{} // touched line -> stored to
	touched := map[uint32]bool{}
	var stores uint8
	cycles := 0
	for j := r.Start; j < r.Start+uint32(r.Count); j++ {
		st := c.store[j>>6]&(1<<(j&63)) != 0
		k := lineKey{c.vpn[j], uint64(c.off[j]) >> arch.LineShift}
		want[k] = want[k] || st
		touched[k.vpn] = true
		if st {
			stores++
		}
		cycles += 1 + int(c.step[j])
	}
	if r.Stores != stores {
		t.Fatalf("%s: %d stores, want %d", where, r.Stores, stores)
	}
	switch {
	case cycles <= runCycleCap && int(r.Cycles) != cycles:
		t.Fatalf("%s: %d cycles, want %d", where, r.Cycles, cycles)
	case cycles > runCycleCap && (r.Cycles != workload.Unretirable || r.Count != 1):
		t.Fatalf("%s: %d cycles over %d refs marked %d", where, cycles, r.Count, r.Cycles)
	}
	pages := c.runVPN[r.Page : r.Page+uint32(r.NPages)]
	for k, vpn := range pages {
		if !touched[vpn] || slices.Index(pages, vpn) != k {
			t.Fatalf("%s: pages %#x, want each of %v once", where, pages, touched)
		}
	}
	if len(pages) != len(touched) {
		t.Fatalf("%s: pages %#x, want each of %v once", where, pages, touched)
	}
	got := map[lineKey]bool{}
	for _, l := range c.runLines[r.Line : r.Line+uint32(r.NLines)] {
		k := lineKey{pages[l.Page()], l.Index()}
		if _, dup := got[k]; dup {
			t.Fatalf("%s: line %+v listed twice", where, k)
		}
		got[k] = l.Written()
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%s: footprint %v, want %v", where, got, want)
	}
}

// spanEnv is a column consumer that checks each span's runs cover it
// exactly: the first starts at the span's first ref and each next one
// where the previous ends, up to the span's end.
type spanEnv struct {
	countEnv
	t    *testing.T
	name string
}

func (e *spanEnv) StreamCols(cols workload.RefCols) {
	at := cols.Bit0
	for _, r := range cols.Runs {
		if int(r.Start) != at {
			e.t.Fatalf("%s: span [%d,%d) has a run at %d, want %d", e.name, cols.Bit0, cols.Bit0+cols.Len(), r.Start, at)
		}
		at += int(r.Count)
	}
	if at != cols.Bit0+cols.Len() {
		e.t.Fatalf("%s: span [%d,%d) runs end at %d", e.name, cols.Bit0, cols.Bit0+cols.Len(), at)
	}
	e.refs += uint64(cols.Len())
}

// TestProgramBytes bounds the compiled program's memory per reference
// by its layout. The columns take 11 bytes + 1 bit per ref; the run
// tables, a 20-byte header per run plus 4 bytes per footprint page and
// 2 per footprint line, add about 4 more on small radix; the bound
// leaves room for the last chunk's unused column capacity. The layout
// with fixed 184-byte runs and a per-ref run index took about 38.
func TestProgramBytes(t *testing.T) {
	w, err := exp.MakeWorkload("radix", exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	_, p := Record(sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig()), w)
	perRef := float64(p.Bytes()) / float64(p.Refs())
	t.Logf("radix small: %d refs, %d bytes, %.2f B/ref", p.Refs(), p.Bytes(), perRef)
	if perRef > 18 {
		t.Errorf("compiled program holds %.2f B/ref, want at most 18", perRef)
	}
}

// TestReplayConfigIndependent records each paper workload once, on
// tlb64+mtlb128/2w, and replays that recording on every uniprocessor
// cell an experiment declares for the workload: every TLB size, MTLB
// geometry and scheme, the buddy allocator, the MMC timing ablations,
// banked DRAM and stream buffers. Each replay must equal the cell's
// live simulation exactly, so one recording serves every configuration.
func TestReplayConfigIndependent(t *testing.T) {
	rec := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	progs := map[string]*Program{}
	for _, name := range paperWorkloads {
		_, progs[name] = Record(rec, smallWorkload(t, name))
	}
	seen := map[string]bool{}
	for _, d := range exp.Descriptors() {
		if d.Cells == nil {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if progs[c.Workload] == nil || c.Cfg.SMP != nil || seen[c.Key()] {
				continue
			}
			seen[c.Key()] = true
			if got, want := sim.RunOn(c.Cfg, NewEngine(progs[c.Workload])), c.Simulate(); got != want {
				t.Errorf("%s on %s: replay diverged from live:\nlive:   %+v\nreplay: %+v", c.Workload, c.Cfg.Label, want, got)
			}
		}
	}
	t.Logf("%d cells", len(seen))
}

// TestEngineSteadyStateAllocs proves replay allocates nothing per run
// in steady state: after the first Run (which warms nothing engine-side
// — the quantum buffer is preallocated), repeated replays against a
// reusable environment do not allocate.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cfg := sim.Default().WithTLB(64)
	w, err := exp.MakeWorkload("em3d", exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	_, p := Record(cfg, w)
	eng := NewEngine(p)
	env := &streamEnv{}
	eng.Run(env) // warm
	if avg := testing.AllocsPerRun(3, func() { eng.Run(env) }); avg != 0 {
		t.Errorf("steady-state replay allocates %.1f objects per run, want 0", avg)
	}
}

// TestCompileRejectsBadRecord pins Compile's error path.
func TestCompileRejectsBadRecord(t *testing.T) {
	if _, err := Compile([]trace.Record{{Kind: 99}}); err == nil {
		t.Fatal("Compile accepted an unknown record kind")
	}
}
