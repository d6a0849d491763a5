package invariant

import (
	"sync"
	"testing"

	"shadowtlb/internal/core"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/workload/radix"
)

// fuzzRadixConfig is a deliberately small sort so each fuzz execution
// stays in the milliseconds while still allocating, remapping and
// crossing barriers on every CPU.
func fuzzRadixConfig() radix.Config { return radix.Config{Keys: 1 << 12, Radix: 256} }

// fuzzSMPConfig builds the machine one fuzz execution simulates.
func fuzzSMPConfig(cpus, quantum int, arbSeed uint64) sim.Config {
	cfg := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	cfg.SMP = &sim.SMPParams{CPUs: cpus, Quantum: quantum, ArbSeed: arbSeed}
	return cfg
}

// baselineInstructions caches, per CPU count, the instruction total of a
// run at the default quantum with plain round-robin arbitration — the
// reference the perturbed schedules must reproduce.
var baselineInstructions sync.Map

// FuzzSMPSchedule perturbs the multicore executor's only scheduling
// freedoms — the slot length and the arbitration rotation seed — and
// requires that under every schedule (a) the full multicore invariant
// catalogue stays clean across the run, (b) the same schedule replayed
// is bit-identical, (c) the executed instruction stream is untouched
// (timing may legitimately move; the program must not), (d) the sort
// still sorts, and (e) the per-CPU clocks are consistent: every CPU's
// charged-plus-idle total is at most the machine clock, the slowest
// CPU's equals it, and the summed breakdown equals the per-CPU sum.
func FuzzSMPSchedule(f *testing.F) {
	f.Add(uint64(0), 256, 2)
	f.Add(uint64(1), 16, 4)
	f.Add(uint64(0xDEADBEEF), 23, 3)
	f.Add(uint64(42), 1024, 1)
	f.Fuzz(func(t *testing.T, arbSeed uint64, quantum, cpus int) {
		cpus = 1 + abs(cpus)%4
		// The floor keeps one execution in fuzzing's time budget: a
		// 1-entry quantum is a legal schedule but hands the machine
		// over after every reference through the whole run, and the
		// audit sweeps on top push a single input past the
		// coordinator's hang threshold.
		quantum = 16 + abs(quantum)%1009
		cfg := fuzzSMPConfig(cpus, quantum, arbSeed)

		w := radix.NewParallel(fuzzRadixConfig())
		s := sim.NewSMP(cfg, w)
		chk := AttachSMP(s, Options{})
		res := s.Run()

		if vs := chk.Violations(); len(vs) != 0 {
			t.Fatalf("schedule q=%d seed=%#x cpus=%d violated invariants: %v",
				quantum, arbSeed, cpus, vs)
		}
		if !w.Sorted {
			t.Fatalf("schedule q=%d seed=%#x cpus=%d: output not sorted", quantum, arbSeed, cpus)
		}

		// (b) replay identity.
		if again := sim.RunSMP(cfg, radix.NewParallel(fuzzRadixConfig())); again != res {
			t.Fatalf("replay diverged:\n%+v\n%+v", again, res)
		}

		// (c) schedule perturbations must not change the program.
		key := cpus
		if base, ok := baselineInstructions.Load(key); ok {
			if res.Instructions != base.(uint64) {
				t.Fatalf("instructions moved with the schedule: %d, baseline %d",
					res.Instructions, base.(uint64))
			}
		} else {
			ref := sim.RunSMP(fuzzSMPConfig(cpus, 0, 0), radix.NewParallel(fuzzRadixConfig()))
			baselineInstructions.Store(key, ref.Instructions)
			if res.Instructions != ref.Instructions {
				t.Fatalf("instructions moved with the schedule: %d, baseline %d",
					res.Instructions, ref.Instructions)
			}
		}

		// (e) clock consistency.
		var work, maxClock uint64
		for i := 0; i < s.N; i++ {
			w := uint64(s.CPUs[i].Breakdown.Total())
			clock := w + uint64(s.Idle[i])
			work += w
			if clock > s.MachineCycles {
				t.Fatalf("cpu %d clock %d beyond machine cycles %d", i, clock, s.MachineCycles)
			}
			if clock > maxClock {
				maxClock = clock
			}
		}
		if maxClock != s.MachineCycles {
			t.Fatalf("no CPU's clock reaches the machine clock: max %d, machine %d",
				maxClock, s.MachineCycles)
		}
		if got := uint64(res.Breakdown.Total()); got != work {
			t.Fatalf("summed breakdown %d != per-CPU work sum %d", got, work)
		}
	})
}

func abs(n int) int {
	if n < 0 {
		if n == -n { // math.MinInt negates to itself
			return 0
		}
		return -n
	}
	return n
}
