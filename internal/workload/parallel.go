package workload

// Parallel is a workload that can run as n threads over one shared
// address space — the SPLASH-2 shape the multicore simulator executes
// with one thread pinned to each simulated CPU.
//
// The contract that keeps each thread's program independent of how the
// simulator interleaves the threads:
//
//   - Threads own disjoint sets of pages. A thread issues Loads and
//     Stores only against pages it owns; values that must cross
//     threads travel through Go-side exchange buffers handed over at
//     Barrier points (the message-passing formulation of the SPLASH-2
//     kernels), after which the receiving thread Stores them into its
//     own pages.
//   - Thread 0 performs the shared allocation (AllocRegion /
//     AllocAligned / Remap) and publishes the layout in the workload
//     struct before the first barrier; every other thread's first
//     action is Sync(env). Ordinary Go reads of the published layout
//     are safe after that barrier.
//   - All randomness is seeded per thread so reference streams are
//     reproducible regardless of host scheduling.
//
// RunThread(env, 0, 1) must reproduce a sensible uniprocessor run:
// Sync is a no-op on envs without barriers, so serial Run can simply
// delegate to it.
type Parallel interface {
	Workload
	// RunThread executes thread t of n on the given environment.
	RunThread(env Env, t, n int)
}

// Barrierer is the optional Env extension Parallel workloads use to
// rendezvous. The env the multicore executor gives each CPU's thread
// implements it; serial envs do not, making every barrier a no-op
// under a single thread.
type Barrierer interface {
	// Barrier blocks until all unfinished threads reach a barrier.
	Barrier()
}

// Sync invokes env.Barrier when the environment supports it. Parallel
// workloads call Sync instead of type-asserting so the same RunThread
// body runs serially (n=1, plain env) and on the multicore simulator.
func Sync(env Env) {
	if b, ok := env.(Barrierer); ok {
		b.Barrier()
	}
}

// Multi is a multiprogrammed bundle: independent serial programs that
// the multicore simulator schedules over its CPUs (member i runs on
// CPU i mod n, members on the same CPU run back to back with a context
// switch), each in its own address space. On a uniprocessor system the
// members simply run sequentially in one address space, using disjoint
// regions.
type Multi interface {
	Workload
	// Members returns the bundled programs. The set is fixed — it does
	// not depend on the CPU count — so speedup across CPU counts
	// measures the same total work (strong scaling).
	Members() []Workload
}

// Mix is the standard Multi implementation: a named, fixed list of
// serial workloads.
type Mix struct {
	name    string
	members []Workload
}

// NewMix bundles the given workloads into a multiprogrammed mix.
func NewMix(name string, members ...Workload) *Mix {
	if len(members) == 0 {
		panic("workload: empty mix")
	}
	return &Mix{name: name, members: members}
}

// Name implements Workload.
func (m *Mix) Name() string { return m.name }

// SbrkSuperpages reports whether any member wants eager sbrk
// superpages; the multicore simulator applies the policy per member
// process instead.
func (m *Mix) SbrkSuperpages() bool {
	for _, w := range m.members {
		if w.SbrkSuperpages() {
			return true
		}
	}
	return false
}

// Members implements Multi.
func (m *Mix) Members() []Workload { return m.members }

// Run executes the members back to back in one address space: the
// uniprocessor fallback. Members allocate disjoint regions, so sharing
// an env is safe for the region-based kernels used in mixes.
func (m *Mix) Run(env Env) {
	for _, w := range m.members {
		w.Run(env)
	}
}
