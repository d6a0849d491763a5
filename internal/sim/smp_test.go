package sim

import (
	"runtime"
	"testing"

	"shadowtlb/internal/core"
	"shadowtlb/internal/workload"
	"shadowtlb/internal/workload/em3d"
	"shadowtlb/internal/workload/radix"
)

func smpConfig(cpus int) Config {
	cfg := Default().WithTLB(64).WithMTLB(core.MTLBConfig{Entries: 128, Ways: 2})
	return cfg.WithSMP(cpus)
}

func TestSMPRadixSorts(t *testing.T) {
	for _, cpus := range []int{1, 2, 4} {
		w := radix.NewParallel(radix.SmallConfig())
		res := RunSMP(smpConfig(cpus), w)
		if !w.Sorted {
			t.Fatalf("cpus=%d: not sorted", cpus)
		}
		if res.CPUs != cpus {
			t.Fatalf("cpus=%d: result reports %d", cpus, res.CPUs)
		}
		if res.MachineCycles == 0 || res.Breakdown.Total() == 0 {
			t.Fatalf("cpus=%d: empty result %+v", cpus, res)
		}
		if uint64(res.MaxCPUCycles) > res.MachineCycles {
			t.Fatalf("cpus=%d: max CPU cycles %d beyond machine cycles %d",
				cpus, res.MaxCPUCycles, res.MachineCycles)
		}
	}
}

func TestSMPEm3dChecksumStableAcrossCPUCounts(t *testing.T) {
	// The graph depends on the thread count, so checksums differ across
	// CPU counts — but for a fixed count they must be identical across
	// runs and executors.
	for _, cpus := range []int{1, 2, 4} {
		w1 := em3d.NewParallel(em3d.SmallConfig())
		r1 := RunSMP(smpConfig(cpus), w1)
		w2 := em3d.NewParallel(em3d.SmallConfig())
		r2 := RunSMP(smpConfig(cpus), w2)
		if w1.Checksum != w2.Checksum {
			t.Fatalf("cpus=%d: checksum %d vs %d", cpus, w1.Checksum, w2.Checksum)
		}
		if r1 != r2 {
			t.Fatalf("cpus=%d: results differ:\n%+v\n%+v", cpus, r1, r2)
		}
	}
}

func TestSMPDeterministicAcrossGOMAXPROCS(t *testing.T) {
	want := RunSMP(smpConfig(2), radix.NewParallel(radix.SmallConfig()))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(p)
		got := RunSMP(smpConfig(2), radix.NewParallel(radix.SmallConfig()))
		if got != want {
			t.Fatalf("GOMAXPROCS=%d: results differ:\n%+v\n%+v", p, got, want)
		}
	}
}

func TestSMPMixRunsPerCPUProcesses(t *testing.T) {
	mix := workload.NewMix("mix",
		radix.New(radix.SmallConfig()),
		em3d.New(em3d.SmallConfig()),
	)
	for _, cpus := range []int{1, 2} {
		r1 := RunSMP(smpConfig(cpus), mix)
		r2 := RunSMP(smpConfig(cpus), workload.NewMix("mix",
			radix.New(radix.SmallConfig()),
			em3d.New(em3d.SmallConfig()),
		))
		if r1 != r2 {
			t.Fatalf("cpus=%d: mix results differ:\n%+v\n%+v", cpus, r1, r2)
		}
		if r1.IPIs != 0 {
			t.Fatalf("cpus=%d: private address spaces must not IPI (got %d)", cpus, r1.IPIs)
		}
	}
}

func TestSMPSerialWorkloadOnCPU0(t *testing.T) {
	w := radix.New(radix.SmallConfig())
	res := RunSMP(smpConfig(2), w)
	if !w.Sorted {
		t.Fatal("not sorted")
	}
	if res.MinCPUCycles >= res.MaxCPUCycles {
		t.Fatalf("expected an idle second CPU: min %d max %d", res.MinCPUCycles, res.MaxCPUCycles)
	}
}

// failingParallel is a parallel workload whose thread 1 panics between
// two barriers, while the others are parked mid-run.
type failingParallel struct{}

func (failingParallel) Name() string           { return "failing" }
func (failingParallel) SbrkSuperpages() bool   { return false }
func (p failingParallel) Run(env workload.Env) { p.RunThread(env, 0, 1) }
func (failingParallel) RunThread(env workload.Env, t, n int) {
	env.Step(100)
	workload.Sync(env)
	if t == 1 {
		panic("thread 1 fails")
	}
	env.Step(100)
	workload.Sync(env)
}

func TestSMPThreadPanicReachesCaller(t *testing.T) {
	checkThreadPanic(t, "thread 1 fails", func() { RunSMP(smpConfig(4), failingParallel{}) })
}

// TestAssemblyHooksFireOncePerMachine pins which assembly hook each
// machine fires: a uniprocessor and a multiprogrammed machine fire
// OnNewSystem once, a multicore machine OnNewSMPSystem once, whatever
// its workload's shape, and no machine fires the other hook. The
// invariant harness relies on this to audit each machine with exactly
// one checker.
func TestAssemblyHooksFireOncePerMachine(t *testing.T) {
	prev, prevSMP := OnNewSystem, OnNewSMPSystem
	defer func() { OnNewSystem, OnNewSMPSystem = prev, prevSMP }()
	var uni, smp int
	OnNewSystem = func(*System) { uni++ }
	OnNewSMPSystem = func(*SMPSystem) { smp++ }

	two := func() []workload.Workload {
		return []workload.Workload{radix.New(radix.SmallConfig()), em3d.New(em3d.SmallConfig())}
	}
	for _, tc := range []struct {
		name     string
		assemble func()
		uni, smp int
	}{
		{"New", func() { New(small()) }, 1, 0},
		{"NewMulti", func() { NewMulti(small(), two(), 100_000) }, 1, 0},
		{"NewSMP/parallel", func() { NewSMP(smpConfig(4), radix.NewParallel(radix.SmallConfig())) }, 0, 1},
		{"NewSMP/mix", func() { NewSMP(smpConfig(4), workload.NewMix("mix", two()...)) }, 0, 1},
		{"NewSMP/serial", func() { NewSMP(smpConfig(4), radix.New(radix.SmallConfig())) }, 0, 1},
	} {
		uni, smp = 0, 0
		tc.assemble()
		if uni != tc.uni || smp != tc.smp {
			t.Errorf("%s fired OnNewSystem %d and OnNewSMPSystem %d times, want %d and %d",
				tc.name, uni, smp, tc.uni, tc.smp)
		}
	}
}
