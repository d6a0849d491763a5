package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"
)

// minReps is the fewest timed reps a run makes, so its medians never
// rest on one rep, even on a host slow enough that one rep fills the
// time. It is no higher because the output checks cost about one more
// rep, and every run must end within the time a full comparison may take.
const minReps = 2

// config is one invocation's settings.
type config struct {
	seconds  float64 // host seconds of timed reps to aim for
	reps     int     // overrides minReps when > 0
	seed     uint64
	trace    bool
	traceOut string // file prefix for the traced run's spans; "" writes none
}

// report is one workload's measurement.
type report struct {
	suite             string
	attempted, failed int
	errs              []string
	checkS            float64
	repWalls          []float64 // per timed rep, seconds
	defs              []metricDef
	metrics           map[string]float64
}

func (r report) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

// opRecord collects every outcome of one op across the run.
type opRecord struct {
	op    op
	outs  []outcome
	fails int // executions that panicked
}

// session runs one suite: reps, the traced rep and the checks.
type session struct {
	s    *suite
	rng  *rand.Rand
	recs map[string]*opRecord
	keys []string // op names in first-run order, for stable reporting
	errs []string
}

func newSession(seed uint64, s *suite) *session {
	return &session{
		s:    s,
		rng:  rand.New(rand.NewPCG(seed, 0xbe7c4)),
		recs: make(map[string]*opRecord),
	}
}

// timing is what a stretch of ops cost: set-up and run wall time.
type timing struct {
	setup, wall time.Duration
}

// runOp prepares and runs one op, recovering a panic into an error.
func runOp(o op, rng *rand.Rand, p *probe) (out outcome, t timing, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op %s panicked: %v", o.name, r)
		}
	}()
	start := time.Now()
	run := o.prepare(rng, p)
	mid := time.Now()
	out = run()
	t.setup, t.wall = mid.Sub(start), time.Since(mid)
	return out, t, nil
}

// record files an op's outcome for the checks.
func (x *session) record(o op, out outcome, err error) {
	r := x.recs[o.name]
	if r == nil {
		r = &opRecord{op: o}
		x.recs[o.name] = r
		x.keys = append(x.keys, o.name)
	}
	if err != nil {
		r.fails++
		x.errs = append(x.errs, err.Error())
		return
	}
	r.outs = append(r.outs, out)
}

// runOps runs the given ops once each in seeded order, each from a
// collected heap, and returns what they cost together. Collecting
// between ops keeps one op's garbage out of the next op's time and
// peak memory, which would otherwise depend on the order.
func (x *session) runOps(ops []op, p *probe) timing {
	var t timing
	for _, i := range x.rng.Perm(len(ops)) {
		runtime.GC()
		out, u, err := runOp(ops[i], x.rng, p)
		x.record(ops[i], out, err)
		t.setup += u.setup
		t.wall += u.wall
	}
	return t
}

// setupRepeats is how many more times a rep's set-up is repeated on its
// own after the timed reps, its machines discarded unrun. A live rep
// sets up in a few hundred microseconds, and single set-ups in one run
// differ by a factor of two, so a median over the few timed reps alone
// would wander from run to run.
const setupRepeats = 60

// setupOnly sets every op of the suite up once, each from a collected
// heap as in a rep, without running it, and returns what that cost. A
// panicking set-up counts as a failed execution of its op.
func (x *session) setupOnly() time.Duration {
	var d time.Duration
	for _, o := range x.s.ops {
		runtime.GC()
		start := time.Now()
		err := prepareOnly(o, x.rng)
		d += time.Since(start)
		if err != nil {
			x.record(o, outcome{}, err)
		}
	}
	return d
}

func prepareOnly(o op, rng *rand.Rand) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op %s set-up panicked: %v", o.name, r)
		}
	}()
	o.prepare(rng, nil)
	return nil
}

// rep runs every op of the suite once with a fresh tally of the
// modelled counters.
func (x *session) rep(p *probe) (timing, *counters) {
	c := tally()
	t := x.runOps(x.s.ops, p)
	active.Store(nil)
	return t, c
}

// check verifies every recorded outcome: each equals its op's first
// outcome, and each passes the op's reference check. It returns the
// number of failed executions.
func (x *session) check() int {
	failed := 0
	for _, name := range x.keys {
		r := x.recs[name]
		failed += r.fails
		ok, err := buildChecker(r.op)
		if err != nil {
			x.errs = append(x.errs, fmt.Sprintf("op %s: reference: %v", name, err))
			failed += len(r.outs)
			continue
		}
		for i, o := range r.outs {
			if o != r.outs[0] || !ok(o) {
				failed++
				x.errs = append(x.errs, fmt.Sprintf("op %s: execution %d differs from the reference", name, i))
			}
		}
	}
	return failed
}

// buildChecker runs an op's checker, recovering a panicking reference
// into an error.
func buildChecker(o op) (ok func(outcome) bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	return o.checker()
}

// attempted counts every op execution so far.
func (x *session) attempted() int {
	n := 0
	for _, r := range x.recs {
		n += len(r.outs) + r.fails
	}
	return n
}

// measure runs one suite: set-up, timed reps for about cfg.seconds, the
// traced rep when asked, then the output checks.
func measure(cfg config, s *suite) report {
	installTally()
	x := newSession(cfg.seed, s)
	rep := report{suite: s.name, defs: endToEnd, metrics: make(map[string]float64)}
	var p *probe
	if cfg.trace {
		p = newProbe(s.name, x.rng.Uint64())
		rep.defs = perLayer
	}

	resetPeakRSS()
	start := time.Now()
	if s.setup != nil {
		if err := s.setup(p); err != nil {
			// The set-up is the one attempt made, and it failed.
			rep.errs = append(rep.errs, fmt.Sprintf("setup: %v", err))
			rep.attempted, rep.failed = 1, 1
			return rep
		}
	}
	once := time.Since(start)

	least := minReps
	if cfg.reps > 0 {
		least = cfg.reps
	}
	// After the least reps, another starts only if it would end nearer
	// to cfg.seconds than stopping now does, so a run measures about
	// cfg.seconds however long its reps are.
	var setups, walls, rates, spans []float64
	start = time.Now()
	for n := 0; n < least || time.Since(start).Seconds()+median(spans)/2 < cfg.seconds; n++ {
		t0 := time.Now()
		t, c := x.rep(nil)
		spans = append(spans, time.Since(t0).Seconds())
		setups = append(setups, t.setup.Seconds())
		walls = append(walls, t.wall.Seconds())
		rates = append(rates, ratio(float64(c.refCount()), t.wall.Seconds()))
	}
	rep.repWalls = walls
	peak, err := peakRSSMB()
	if err != nil {
		rep.errs = append(rep.errs, err.Error())
	}
	for range setupRepeats {
		setups = append(setups, x.setupOnly().Seconds())
	}
	rep.metrics["wall_s"] = median(walls)
	rep.metrics["refs_per_s"] = median(rates)
	rep.metrics["setup_s"] = once.Seconds() + median(setups)
	rep.metrics["peak_rss_mb"] = peak

	if p != nil {
		p.traced(x, median(walls))
		rep.metrics = p.vals
		if cfg.traceOut != "" {
			if err := p.write(cfg.traceOut); err != nil {
				rep.errs = append(rep.errs, fmt.Sprintf("writing trace: %v", err))
			}
		}
	}

	start = time.Now()
	rep.failed = x.check()
	rep.checkS = time.Since(start).Seconds()
	rep.attempted = x.attempted()
	rep.errs = append(rep.errs, x.errs...)
	return rep
}
