package replay

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
	"shadowtlb/internal/workload/radix"
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

			// Path 2: trace file round-trip -> compiled program.
			w2, err := exp.MakeWorkload(name, exp.Small)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tw, err := trace.NewWriter(&buf, w2.SbrkSuperpages())
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
			p2.Workload = name
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

// TestEngineFallbackPaths drives the engine through both delivery paths
// — ColStreamer, and plain per-ref Env — and checks each sees every
// reference.
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

// colsEnv adds the ColStreamer column path.
type colsEnv struct{ countEnv }

func (e *colsEnv) StreamCols(cols workload.RefCols) { e.refs += uint64(cols.Len()) }

// TestProgramBytes bounds each paper workload's compiled program per
// reference, recorded at small scale on tlb64+mtlb128/2w. The columns
// take 5 bytes + 1 bit per reference; radix has 3 segments and few
// pages, so its bound leaves room only for the dictionaries. The others
// add the step overflow table (compress) and segment lists (vortex and
// gcc close a run at every sbrk).
func TestProgramBytes(t *testing.T) {
	rec := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	for _, tc := range []struct {
		name  string
		bound float64
	}{
		{"compress", 9},
		{"vortex", 9},
		{"radix", 5.5},
		{"em3d", 9},
		{"gcc", 9},
	} {
		_, p := Record(rec, smallWorkload(t, tc.name))
		l := p.Layout()
		if sum := l.Columns + l.Pages + l.Extra + l.SegBytes; sum != p.Bytes() {
			t.Errorf("%s: layout sums to %d bytes, Bytes reports %d", tc.name, sum, p.Bytes())
		}
		perRef := float64(p.Bytes()) / float64(p.Refs())
		t.Logf("%s small: %d refs, %d segments, %d bytes, %.2f B/ref", tc.name, p.Refs(), p.Segments(), p.Bytes(), perRef)
		if perRef > tc.bound {
			t.Errorf("%s: compiled program holds %.2f B/ref, want at most %.1f", tc.name, perRef, tc.bound)
		}
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

// TestReplayMatchesLiveUnderPressure records workloads on
// tlb64+mtlb128/2w and replays them on machines that move translations
// under the page memo while it runs, each of which the experiments
// never declare: a frame cap that makes the page-out daemon swap
// shadow-backed pages out and back in (the shadow generation), online
// superpage promotion (TLB purges and new shadow mappings), and two
// processes time-sliced on one CPU (SwitchVM). Each replay must equal
// the same machine running the workload live, and the pressure must
// have occurred.
func TestReplayMatchesLiveUnderPressure(t *testing.T) {
	rec := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())

	// Swap: radix at the size TestFastPathDifferentialSwapPressure
	// uses, about 260 pages against 180 frames; small radix fits.
	swapRadix := func() workload.Workload { return radix.New(radix.Config{Keys: 1 << 17, Radix: 256}) }
	// Promotion: radix remaps its own space, leaving the policy nothing
	// to promote, so a region the program never remaps is added.
	random := func() workload.Workload {
		return &workload.RandomAccess{Bytes: 1 * arch.MB, Accesses: 100_000, WriteFrac: 25, StepPer: 2}
	}
	for _, tc := range []struct {
		name     string
		w        func() workload.Workload
		cfg      sim.Config
		setup    func(*sim.System)
		pressure func(*sim.System) uint64
	}{
		{"swap/radix-128k", swapRadix, func() sim.Config { c := rec; c.MaxUserFrames = 180; return c }(),
			func(*sim.System) {}, func(s *sim.System) uint64 { return s.VM.SwapOuts }},
		{"promotion/radix", func() workload.Workload { return smallWorkload(t, "radix") }, rec,
			func(s *sim.System) { s.VM.EnablePromotion(vm.DefaultPromotePolicy()) }, nil},
		{"promotion/random", random, rec,
			func(s *sim.System) { s.VM.EnablePromotion(vm.DefaultPromotePolicy()) },
			func(s *sim.System) uint64 { return s.VM.PromotionsMade() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, p := Record(rec, tc.w())
			run := func(w workload.Workload) (sim.Result, uint64) {
				s := sim.New(tc.cfg)
				tc.setup(s)
				res := s.Run(w)
				if tc.pressure == nil {
					return res, 0
				}
				return res, tc.pressure(s)
			}
			live, livePressure := run(tc.w())
			rep, repPressure := run(NewEngine(p))
			if rep != live || repPressure != livePressure {
				t.Errorf("replay diverged from live:\nlive:   %+v (pressure %d)\nreplay: %+v (pressure %d)", live, livePressure, rep, repPressure)
			}
			if tc.pressure != nil && livePressure == 0 {
				t.Error("the machine exerted no pressure")
			}
		})
	}

	// Multiprogramming: two processes time-sliced on one CPU. The
	// quantum makes every reference and step take the per-reference
	// path, whose preemption checks sit between calls. Compress issues
	// Step(2) and then Step(3) after each secondary probe, so a switch
	// can land between the two: replay must keep them apart. A program
	// that sums them into one Step still matches at quanta of 30,000
	// cycles and more, and diverges at 20,000.
	for _, tc := range []struct {
		name    string
		quantum stats.Cycles
	}{{"radix", 50_000}, {"compress", 20_000}} {
		name := tc.name
		t.Run("multiprogrammed/"+name, func(t *testing.T) {
			_, p := Record(rec, smallWorkload(t, name))
			type proc struct {
				Cycles, TLBMiss stats.Cycles
				Switches        uint64
			}
			type machine struct {
				Total     stats.Cycles
				Breakdown stats.Breakdown
				TLB       stats.HitMiss
				Cache     stats.HitMiss
				Procs     []proc
			}
			run := func(w1, w2 workload.Workload) machine {
				ms := sim.NewMulti(rec, []workload.Workload{w1, w2}, tc.quantum)
				m := machine{Total: ms.Run(), Breakdown: ms.CPU.Breakdown,
					TLB: ms.CPU.TLB.Stats, Cache: ms.CPU.Cache.Stats}
				for _, pr := range ms.Procs {
					m.Procs = append(m.Procs, proc{pr.Cycles, pr.TLBMissCycles, pr.Switches})
				}
				return m
			}
			live := run(smallWorkload(t, name), smallWorkload(t, name))
			rep := run(NewEngine(p), NewEngine(p))
			if !reflect.DeepEqual(rep, live) {
				t.Errorf("replay diverged from live:\nlive:   %+v\nreplay: %+v", live, rep)
			}
			if live.Procs[0].Switches < 2 {
				t.Errorf("the processes were switched in %d times", live.Procs[0].Switches)
			}
		})
	}
}

// TestEngineSteadyStateAllocs proves replay allocates nothing per run
// in steady state: after the first Run (which warms nothing engine-side
// — the gather buffer is preallocated), repeated replays against a
// reusable environment, on either delivery path, do not allocate.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cfg := sim.Default().WithTLB(64)
	w, err := exp.MakeWorkload("em3d", exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	_, p := Record(cfg, w)
	eng := NewEngine(p)
	for _, env := range []workload.Env{&countEnv{}, &colsEnv{}} {
		eng.Run(env) // warm
		if avg := testing.AllocsPerRun(3, func() { eng.Run(env) }); avg != 0 {
			t.Errorf("%T: steady-state replay allocates %.1f objects per run, want 0", env, avg)
		}
	}
}

// TestProgramKeepsEveryCall compiles a record stream built to hit the
// layout's edges and replays it into an environment that records every
// call: the calls must be the records, one for one. The stream covers
// every access size, a step before any reference, the longest step a
// code byte holds and the shortest it does not, steps past MaxInt32,
// two and three steps after one reference (the first too long for the
// code byte in one case), every kind of control call, and two chunks
// of references that alternate between pages colliding in the
// builder's dictionary cache, so a chunk's dictionary fills all 64K
// indexes, with several steps on the last reference of one chunk and
// the first of the next.
func TestProgramKeepsEveryCall(t *testing.T) {
	const page = uint64(arch.PageSize)
	recs := []trace.Record{
		{Kind: trace.KindAllocRegion, A: 1 << 20},
		{Kind: trace.KindStep, A: 7},
		{Kind: trace.KindAllocAligned, A: 1 << 20, B: 1<<32 | 4096},
	}
	steps := map[int][]uint64{
		1: {31}, 2: {32}, 3: {17250}, 4: {1<<31 + 5}, 5: {2, 3}, 6: {40, 5}, 7: {5, 40, 7},
		chunkRefs - 1: {4, 1 << 20}, chunkRefs: {9, 9}, chunkRefs + 1: {6},
	}
	for i := 0; i < 2*chunkRefs+10; i++ {
		kind := trace.KindLoad
		if i%3 == 0 {
			kind = trace.KindStore
		}
		// Pages dictSlots apart share a slot of the dictionary cache.
		va := (1+uint64(i%2)*dictSlots)*page + uint64(i*8)%page
		recs = append(recs, trace.Record{Kind: kind, Size: uint8(1 + i%8), A: va &^ 7})
		for _, n := range steps[i] {
			recs = append(recs, trace.Record{Kind: trace.KindStep, A: n})
		}
		if i == 100 {
			recs = append(recs,
				trace.Record{Kind: trace.KindSbrk, A: 8192},
				trace.Record{Kind: trace.KindStep, A: 3},
				trace.Record{Kind: trace.KindRemap, A: 1 << 22, B: 1 << 22})
		}
	}
	p, err := Compile(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.chunks[0].pages); n != chunkRefs {
		t.Errorf("first chunk's dictionary holds %d pages, want one per reference (%d)", n, chunkRefs)
	}
	for _, env := range []interface {
		workload.Env
		calls() []trace.Record
	}{&callEnv{}, &callColsEnv{t: t}} {
		NewEngine(p).Run(env)
		if got := env.calls(); !reflect.DeepEqual(got, recs) {
			i := 0
			for i < min(len(got), len(recs)) && got[i] == recs[i] {
				i++
			}
			t.Errorf("%T: replay made %d calls for %d records; first difference at %d", env, len(got), len(recs), i)
		}
	}
}

// callEnv records every call as the trace record it replays.
type callEnv struct{ recs []trace.Record }

func (e *callEnv) add(r trace.Record)    { e.recs = append(e.recs, r) }
func (e *callEnv) calls() []trace.Record { return e.recs }
func (e *callEnv) Load(va arch.VAddr, size int) uint64 {
	e.add(trace.Record{Kind: trace.KindLoad, Size: uint8(size), A: uint64(va)})
	return 0
}
func (e *callEnv) Store(va arch.VAddr, size int, _ uint64) {
	e.add(trace.Record{Kind: trace.KindStore, Size: uint8(size), A: uint64(va)})
}
func (e *callEnv) Step(n int) { e.add(trace.Record{Kind: trace.KindStep, A: uint64(n)}) }
func (e *callEnv) Sbrk(n uint64) arch.VAddr {
	e.add(trace.Record{Kind: trace.KindSbrk, A: n})
	return 0
}
func (e *callEnv) Remap(base arch.VAddr, size uint64) bool {
	e.add(trace.Record{Kind: trace.KindRemap, A: uint64(base), B: size})
	return true
}
func (e *callEnv) AllocRegion(_ string, size uint64) arch.VAddr {
	e.add(trace.Record{Kind: trace.KindAllocRegion, A: size})
	return 0
}
func (e *callEnv) AllocAligned(_ string, size, align, offset uint64) arch.VAddr {
	e.add(trace.Record{Kind: trace.KindAllocAligned, A: size, B: align<<32 | offset})
	return 0
}

// callColsEnv takes the column path, checks each span against the
// RefCols contract, and records the span's calls as RefCols.Issue makes
// them.
type callColsEnv struct {
	callEnv
	t *testing.T
}

func (e *callColsEnv) StreamCols(cols workload.RefCols) {
	n := cols.Len()
	if n == 0 || n > span || cols.Bit0+n > chunkRefs || len(cols.Off) != n || len(cols.Code) != n {
		e.t.Fatalf("span of %d refs at %d, %d offsets, %d codes", n, cols.Bit0, len(cols.Off), len(cols.Code))
	}
	for _, x := range cols.Extra {
		if int(x.At) < cols.Bit0 || int(x.At) >= cols.Bit0+n {
			e.t.Fatalf("extra step at %d outside the span [%d, %d)", x.At, cols.Bit0, cols.Bit0+n)
		}
	}
	cols.Issue(e)
}

// TestCompileRejectsBadRecord pins Compile's error path: an unknown
// kind, and an access size no environment accepts and a code byte
// cannot hold.
func TestCompileRejectsBadRecord(t *testing.T) {
	for _, rec := range []trace.Record{{Kind: 99}, {Kind: trace.KindLoad, Size: 0}, {Kind: trace.KindStore, Size: 9}} {
		if _, err := Compile([]trace.Record{rec}); !errors.Is(err, trace.ErrBadRecord) {
			t.Errorf("Compile(%+v) returned %v, want ErrBadRecord", rec, err)
		}
	}
}

// TestLoadTakesSbrkModeFromHeader: Load gives the program, and so its
// engine, the sbrk mode the trace header records, and refuses a
// version-1 trace, which has no flags byte to read it from.
func TestLoadTakesSbrkModeFromHeader(t *testing.T) {
	encode := func(t *testing.T, super bool) []byte {
		t.Helper()
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, super)
		if err != nil {
			t.Fatal(err)
		}
		tw.Write(trace.Record{Kind: trace.KindSbrk, A: 1 << 20})
		tw.Write(trace.Record{Kind: trace.KindLoad, Size: 8, A: 0x40000000})
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name  string
		super bool
	}{{"flat", false}, {"superpage", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Load(bytes.NewReader(encode(t, tc.super)))
			if err != nil {
				t.Fatal(err)
			}
			if p.SbrkSuper != tc.super || NewEngine(p).SbrkSuperpages() != tc.super {
				t.Errorf("program sbrk mode %v, engine %v; want %v", p.SbrkSuper, NewEngine(p).SbrkSuperpages(), tc.super)
			}
			if p.Refs() != 1 {
				t.Errorf("program holds %d refs, want 1", p.Refs())
			}
		})
	}
	t.Run("version 1", func(t *testing.T) {
		raw := encode(t, true)
		raw[4] = 1
		if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, trace.ErrBadVersion) {
			t.Errorf("Load(v1 trace) = %v, want ErrBadVersion", err)
		}
	})
}
