package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"shadowtlb/internal/cpu"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/replay"
	"shadowtlb/internal/workload"
)

// probe is the traced run's instrumentation, all of it outside the
// simulator: spans recorded by the benchmark around its calls into each
// layer, kept in memory and written at the end.
type probe struct {
	tr      *obs.Tracer
	root    *obs.Span
	span    obs.SpanContext // parent for spans recorded now
	rng     *rand.Rand      // seeds the shims' sampling
	timerNS float64         // see timerOverheadNS

	vals map[string]float64
	runs []probeRun

	mu     sync.Mutex // the runner's cell hook fires on worker goroutines
	cellMS []float64
}

// probeRun is one instrumented op run: the machine it finished on and
// the shim its workload ran through.
type probeRun struct {
	cpu *cpu.CPU
	sw  *shimmed
}

func newProbe(workload string, seed uint64) *probe {
	tr := obs.NewTracer("bench", nil, 0)
	root := tr.StartSpan("workload "+workload, obs.SpanContext{})
	return &probe{
		tr:      tr,
		root:    root,
		span:    root.Context(),
		rng:     rand.New(rand.NewPCG(seed, 0x7ace)),
		timerNS: timerOverheadNS(),
		vals:    make(map[string]float64),
	}
}

func (p *probe) set(name string, v float64) { p.vals[name] = v }

// shim wraps a workload in an envShim.
func (p *probe) shim(w workload.Workload) *shimmed {
	return &shimmed{Workload: w, shim: newEnvShim(p.rng.Uint64())}
}

// ran registers a finished instrumented run, with one span covering it
// whose attributes carry what the shim measured.
func (p *probe) ran(c *cpu.CPU, sw *shimmed) {
	s := sw.shim
	p.tr.RecordSpan("workload.run", p.span, time.Now().Add(-sw.wall), sw.wall,
		"workload", sw.Name(),
		"refs", strconv.FormatUint(s.refs(), 10),
		"env_ns_est", formatValue(s.envNS()),
		"remap_calls", strconv.FormatUint(s.ctrl[ctrlRemap].calls, 10),
		"sbrk_calls", strconv.FormatUint(s.ctrl[ctrlSbrk].calls, 10))
	p.runs = append(p.runs, probeRun{cpu: c, sw: sw})
}

// cellDone is the runner's cell hook: one span and one wall-time sample
// per distinct simulated cell.
func (p *probe) cellDone(ev runner.CellEvent) {
	d := time.Duration(ev.WallNS)
	p.tr.RecordSpan("runner.cell", p.span, time.Now().Add(-d), d, "cell", ev.Name)
	p.mu.Lock()
	p.cellMS = append(p.cellMS, float64(ev.WallNS)/1e6)
	p.mu.Unlock()
}

// runnerDone takes the pool's metrics after a traced sweep: warm from t0
// to t1, then the experiments' reduces (over warmed cells) to t2.
func (p *probe) runnerDone(pool *runner.Pool, warmed int, t0, t1, t2 time.Time) {
	p.tr.RecordSpan("runner.warm", p.span, t0, t1.Sub(t0))
	p.tr.RecordSpan("runner.reduce", p.span, t1, t2.Sub(t1))
	st := pool.Stats()
	p.mu.Lock()
	var busyMS float64
	for _, ms := range p.cellMS {
		busyMS += ms
	}
	p.set("runner.sim_ms_p50", quantile(p.cellMS, 0.5))
	p.set("runner.sim_ms_p90", quantile(p.cellMS, 0.9))
	p.mu.Unlock()
	warm := t1.Sub(t0).Seconds()
	p.set("runner.warm_s", warm)
	p.set("runner.reduce_s", t2.Sub(t1).Seconds())
	p.set("runner.busy_frac", ratio(busyMS/1e3, warm*float64(pool.Workers())))
	p.set("runner.sims", float64(st.Simulated))
	// The explicit Warm added one request per cell that a plain
	// RunExperiments would not make.
	p.set("runner.dedup_ratio", ratio(float64(st.Requested-warmed), float64(st.Simulated)))
}

// traced runs the traced rep, the suite's extra step and the layer
// drivers, and fills every per-layer metric.
func (p *probe) traced(x *session, untracedWall float64) {
	span := p.tr.StartSpan("rep.traced", p.span)
	p.span = span.Context()
	t, c := x.rep(p)
	span.End()
	p.set("trace.overhead_frac", ratio(t.wall.Seconds(), untracedWall)-1)
	for k, v := range c.modelled() {
		p.set(k, v)
	}

	if x.s.extra != nil {
		span = p.tr.StartSpan("extra", p.root.Context())
		p.span = span.Context()
		x.s.extra(x, p)
		span.End()
	}

	span = p.tr.StartSpan("layers", p.root.Context())
	p.span = span.Context()
	p.layers()
	span.End()
	p.root.End()

	for _, d := range perLayer {
		if _, ok := p.vals[d.name]; !ok {
			p.vals[d.name] = 0
		}
	}
}

// layers turns the instrumented runs into the env, generation and layer
// metrics.
func (p *probe) layers() {
	var refs, envNS, genNS, colsNS, colsRefs, replayNS, replayRefs float64
	var ctrl [nCtrl]ctrlStat
	var lc layerCost
	for _, r := range p.runs {
		s := r.sw.shim
		n := float64(s.refs())
		e := s.envNS()
		wall := float64(r.sw.wall.Nanoseconds())
		refs += n
		envNS += e
		genNS += wall - e
		colsNS += s.calls[kindCols].sampledNS
		colsRefs += float64(s.calls[kindCols].units)
		for k, c := range s.ctrl {
			ctrl[k].calls += c.calls
			ctrl[k].ns += c.ns
		}
		if _, ok := r.sw.Workload.(*replay.Engine); ok {
			replayNS += wall
			replayRefs += n
		}
		lc.add(driveLayers(r.cpu, s.rec.refs, p.timerNS, p.tr, p.span))
	}
	for k, v := range lc.metrics() {
		p.set(k, v)
	}
	env := ratio(envNS, refs)
	p.set("cpu.env_ns_per_ref", env)
	p.set("workload.gen_ns_per_ref", ratio(genNS, refs))
	if lc.refs > 0 {
		p.set("cpu.residual_ns_per_ref", env-lc.slowPathNSPerRef())
	}
	p.set("cpu.streamcols_ns_per_ref", ratio(colsNS, colsRefs))
	p.set("replay.engine_ns_per_ref", ratio(replayNS, replayRefs))
	p.set("vm.remap_ms", ratio(float64(ctrl[ctrlRemap].ns), float64(ctrl[ctrlRemap].calls))/1e6)
	p.set("vm.sbrk_us", ratio(float64(ctrl[ctrlSbrk].ns), float64(ctrl[ctrlSbrk].calls))/1e3)
	p.runs = nil // release the machines
}

// write saves the spans as JSON lines (prefix.jsonl) and as a Perfetto
// trace (prefix.perfetto.json).
func (p *probe) write(prefix string) error {
	if dir := filepath.Dir(prefix); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := writeFile(prefix+".jsonl", p.tr.WriteJSONL); err != nil {
		return err
	}
	return writeFile(prefix+".perfetto.json", func(w io.Writer) error {
		return obs.WriteSpanTrace(w, p.tr.Spans())
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := fill(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	return nil
}
