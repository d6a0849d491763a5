package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/replay"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/workload"
)

// goldenPath is the frozen `mtlbexp -exp all -scale small` output, which
// the sweep's rendered output must keep as a byte prefix.
const goldenPath = "cmd/mtlbexp/testdata/all_small.golden"

// outcome is what one op produced: a simulation result, or the rendered
// tables of an experiment sweep. It is comparable, so reps and engines
// are checked against each other with ==.
type outcome struct {
	res  sim.Result
	text string
}

// op is one simulation on a fresh machine (for the sweep, one whole
// sweep on a fresh pool).
type op struct {
	name string
	// prepare assembles the op's fresh inputs and machine and returns the
	// run to time. With a probe the run is instrumented and registers
	// what the layer drivers need.
	prepare func(rng *rand.Rand, p *probe) func() outcome
	// checker builds the test every outcome of the op must pass. It may
	// run a reference simulation, so it runs off the timed path.
	checker func() (func(outcome) bool, error)
}

// suite is one benchmark workload: the ops a rep runs once each.
type suite struct {
	name string
	// setup runs once before the first rep; it counts toward setup_s.
	setup func(p *probe) error
	ops   []op
	// extra runs in the traced run after the traced rep.
	extra func(x *session, p *probe)
}

var suiteNames = []string{"sweep-small", "live-conv", "live-mtlb", "replay-mtlb"}

// newSuite builds the named workload. Live and replay ops run their
// programs at scale (paper for the benchmark; tests pass small); the
// sweep is small by definition. root is the repository root, where the
// sweep's golden file lives.
func newSuite(name string, scale exp.Scale, root string) (*suite, error) {
	conv := sim.Default().WithTLB(64)
	mtlb := conv.WithMTLB(core.DefaultMTLBConfig())
	switch name {
	case "sweep-small":
		return &suite{
			name: name,
			ops:  []op{sweepOp(root)},
			extra: func(x *session, p *probe) {
				// The pool hides its machines, so the env and layer
				// probes run on two of the sweep's own cells.
				x.runOps([]op{liveOp(mtlb, "em3d", exp.Small), liveOp(mtlb, "radix", exp.Small)}, p)
			},
		}, nil
	case "live-conv":
		return &suite{name: name, ops: liveOps(conv, scale)}, nil
	case "live-mtlb":
		return &suite{name: name, ops: liveOps(mtlb, scale)}, nil
	case "replay-mtlb":
		return replaySuite(mtlb, scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(suiteNames, ", "))
}

// mustWorkload builds a registered workload; the names used here are
// constants, so failure is a programming error.
func mustWorkload(name string, scale exp.Scale) workload.Workload {
	w, err := exp.MakeWorkload(name, scale)
	if err != nil {
		panic(err)
	}
	return w
}

func opName(cfg sim.Config, workload string) string { return workload + "/" + cfg.Label }

// liveOps are em3d (load-dominated) and radix (store-heavy) run live.
func liveOps(cfg sim.Config, scale exp.Scale) []op {
	return []op{liveOp(cfg, "em3d", scale), liveOp(cfg, "radix", scale)}
}

// liveOp runs a workload live on a fresh uniprocessor; the reference is
// the same cell on the CPU's slow path.
func liveOp(cfg sim.Config, name string, scale exp.Scale) op {
	return op{
		name: opName(cfg, name),
		prepare: func(_ *rand.Rand, p *probe) func() outcome {
			return uniprocessorRun(cfg, mustWorkload(name, scale), p)
		},
		checker: func() (func(outcome) bool, error) {
			ref := cfg
			ref.NoFastPath = true
			want := sim.RunOn(ref, mustWorkload(name, scale))
			return func(o outcome) bool { return o.res == want }, nil
		},
	}
}

// uniprocessorRun assembles a fresh machine for w and returns the run
// to time; with a probe, w runs through an envShim and the finished
// machine is handed to the probe for the layer drivers.
func uniprocessorRun(cfg sim.Config, w workload.Workload, p *probe) func() outcome {
	s := sim.New(cfg)
	if p == nil {
		return func() outcome { return outcome{res: s.Run(w)} }
	}
	sw := p.shim(w)
	return func() outcome {
		r := s.Run(sw)
		p.ran(s.CPU, sw)
		return outcome{res: r}
	}
}

// replaySuite records radix and vortex live once, then replays the
// compiled programs on fresh machines; the reference is the live run.
func replaySuite(cfg sim.Config, scale exp.Scale) *suite {
	names := []string{"radix", "vortex"}
	progs := make([]*replay.Program, len(names))
	lives := make([]sim.Result, len(names))
	s := &suite{name: "replay-mtlb"}
	s.setup = func(p *probe) error {
		var recordS, bytes, refs float64
		for i, name := range names {
			var before runtime.MemStats
			if p != nil {
				runtime.GC()
				runtime.ReadMemStats(&before)
			}
			start := time.Now()
			lives[i], progs[i] = replay.Record(cfg, mustWorkload(name, scale))
			recordS += time.Since(start).Seconds()
			if p != nil {
				var after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&after)
				bytes += float64(after.HeapAlloc) - float64(before.HeapAlloc)
				refs += float64(progs[i].Refs())
			}
		}
		if p != nil {
			p.set("replay.record_s", recordS)
			p.set("replay.program_bytes_per_ref", ratio(bytes, refs))
		}
		return nil
	}
	for i, name := range names {
		s.ops = append(s.ops, op{
			name: opName(cfg, name) + "/replay",
			prepare: func(_ *rand.Rand, p *probe) func() outcome {
				return uniprocessorRun(cfg, replay.NewEngine(progs[i]), p)
			},
			checker: func() (func(outcome) bool, error) {
				want := lives[i]
				return func(o outcome) bool { return o.res == want }, nil
			},
		})
	}
	return s
}

// sweepOp is `mtlbexp -exp all -scale small` on a fresh pool: every
// registered experiment, rendered as mtlbexp prints it. The seed
// shuffles the order the experiments are handed to the pool; output is
// rendered in registry order regardless.
func sweepOp(root string) op {
	return op{
		name: "exp-all/small",
		prepare: func(rng *rand.Rand, p *probe) func() outcome {
			descs := exp.Descriptors()
			rng.Shuffle(len(descs), func(i, j int) { descs[i], descs[j] = descs[j], descs[i] })
			// Cell enumeration is set-up. RunExperiments warms the same
			// cells again; over a warmed pool that costs one map lookup
			// each, so the timed part is the simulations and the reduces.
			var cells []exp.Cell
			for _, d := range descs {
				if d.Cells != nil {
					cells = append(cells, d.Cells(exp.Small)...)
				}
			}
			pool := runner.New(runtime.GOMAXPROCS(0))
			if p != nil {
				pool.SetCellHook(p.cellDone)
			}
			return func() outcome {
				t0 := time.Now()
				pool.Warm(cells)
				t1 := time.Now()
				outs := pool.RunExperiments(descs, exp.Small)
				if p != nil {
					p.runnerDone(pool, len(cells), t0, t1, time.Now())
				}
				return outcome{text: render(outs)}
			}
		},
		checker: func() (func(outcome) bool, error) {
			golden, err := os.ReadFile(filepath.Join(root, goldenPath))
			if err != nil {
				return nil, err
			}
			return func(o outcome) bool { return strings.HasPrefix(o.text, string(golden)) }, nil
		},
	}
}

// render prints experiment outputs in registry order, exactly as
// `mtlbexp -exp all` does.
func render(outs []runner.Output) string {
	rank := make(map[string]int)
	for i, id := range exp.IDs() {
		rank[id] = i
	}
	sort.Slice(outs, func(i, j int) bool { return rank[outs[i].ID] < rank[outs[j].ID] })
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "==== %s ====\n", o.ID)
		for _, t := range o.Tables {
			fmt.Fprintln(&b, t.String())
		}
	}
	return b.String()
}
