package replay

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
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
		// NoFastPath also disables the live fast path, so compare the
		// counters that the fast-path contract pins, not the whole
		// Result (cycle accounting is identical by the fastpath tests).
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

// TestTraceReplayAcrossConfigs replays one trace file on two machines:
// each gets its own timing, and the recorded remap calls make
// superpages only where there is an MTLB.
func TestTraceReplayAcrossConfigs(t *testing.T) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := exp.MakeWorkload("radix", exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	mtlbCfg := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	sim.RunOn(mtlbCfg, TraceRecording(w, tw))
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.RunOn(sim.Default().WithTLB(64), NewEngine(p))
	mtlb := sim.RunOn(mtlbCfg, NewEngine(p))
	if base.TotalCycles() == mtlb.TotalCycles() {
		t.Error("different configurations should time differently")
	}
	if base.SuperpagesMade != 0 || mtlb.SuperpagesMade == 0 {
		t.Error("remap records should apply only on the MTLB system")
	}
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
