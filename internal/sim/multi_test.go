package sim

import (
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/workload"
	"shadowtlb/internal/workload/compress"
	"shadowtlb/internal/workload/gcc"
)

func TestMultiRunsToCompletion(t *testing.T) {
	ws := []workload.Workload{
		compress.New(compress.SmallConfig()),
		gcc.New(gcc.SmallConfig()),
	}
	ms := NewMulti(smallMTLB().WithTLB(64), ws, 200_000)
	total := ms.Run()
	if total == 0 {
		t.Fatal("no cycles")
	}
	for i, p := range ms.Procs {
		if !p.t.done {
			t.Errorf("proc %d not done", i)
		}
		if p.Cycles == 0 {
			t.Errorf("proc %d: no cycles attributed", i)
		}
		if p.Switches < 2 {
			t.Errorf("proc %d: only %d dispatches; quantum not enforced", i, p.Switches)
		}
	}
	// Per-process cycles must sum to the machine total minus the boot
	// charge (attributed before scheduling starts).
	var sum uint64
	for _, p := range ms.Procs {
		sum += uint64(p.Cycles)
	}
	boot := uint64(ms.Kernel.Costs.Boot)
	if sum+boot != uint64(total) {
		t.Errorf("per-proc cycles %d + boot %d != total %d", sum, boot, total)
	}
}

func TestMultiWorkloadsComputeCorrectly(t *testing.T) {
	// Programs time-sliced on one machine must compute exactly what
	// they compute alone.
	c1 := compress.New(compress.SmallConfig())
	g1 := gcc.New(gcc.SmallConfig())
	ms := NewMulti(smallMTLB().WithTLB(64), []workload.Workload{c1, g1}, 100_000)
	ms.Run()

	c2 := compress.New(compress.SmallConfig())
	RunOn(smallMTLB().WithTLB(64), c2)
	if c1.CompressedLen != c2.CompressedLen {
		t.Errorf("compress diverged under multiprogramming: %d vs %d",
			c1.CompressedLen, c2.CompressedLen)
	}
	g2 := gcc.New(gcc.SmallConfig())
	RunOn(smallMTLB().WithTLB(64), g2)
	if g1.NodesBuilt != g2.NodesBuilt {
		t.Errorf("gcc diverged: %d vs %d", g1.NodesBuilt, g2.NodesBuilt)
	}
}

func TestMultiDeterministic(t *testing.T) {
	run := func() triple {
		ws := []workload.Workload{
			compress.New(compress.SmallConfig()),
			gcc.New(gcc.SmallConfig()),
		}
		ms := NewMulti(smallMTLB().WithTLB(64), ws, 150_000)
		total := ms.Run()
		return triple{uint64(total), uint64(ms.Procs[0].Cycles), uint64(ms.Procs[1].Cycles)}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("multiprogramming not deterministic: %+v vs %+v", a, b)
	}
}

type triple struct{ total, p0, p1 uint64 }

func TestMultiSuperpagesSoftenContextSwitches(t *testing.T) {
	// Two TLB-hostile processes sharing a 64-entry TLB with no ASIDs:
	// every switch flushes it. With superpages the refill is a handful
	// of misses; with 4 KB pages it is the whole working set again.
	mk := func() []workload.Workload {
		return []workload.Workload{
			&workload.RandomAccess{Bytes: 512 * arch.KB, Accesses: 150_000, Remapped: true, StepPer: 2},
			&workload.RandomAccess{Bytes: 512 * arch.KB, Accesses: 150_000, Remapped: true, StepPer: 2},
		}
	}
	const quantum = 50_000

	base := NewMulti(small().WithTLB(64), mk(), quantum)
	baseTotal := base.Run()
	mtlb := NewMulti(smallMTLB().WithTLB(64), mk(), quantum)
	mtlbTotal := mtlb.Run()

	if mtlbTotal >= baseTotal {
		t.Errorf("MTLB multiprogramming (%d) not faster than base (%d)", mtlbTotal, baseTotal)
	}
	var baseTLB, mtlbTLB uint64
	for i := range base.Procs {
		baseTLB += uint64(base.Procs[i].TLBMissCycles)
		mtlbTLB += uint64(mtlb.Procs[i].TLBMissCycles)
	}
	if mtlbTLB*5 > baseTLB {
		t.Errorf("superpage TLB refill not cheaper: %d vs %d", mtlbTLB, baseTLB)
	}
}

func TestMultiValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for no workloads")
			}
		}()
		NewMulti(small(), nil, 1000)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for zero quantum")
			}
		}()
		NewMulti(small(), []workload.Workload{gcc.New(gcc.SmallConfig())}, 0)
	}()
}

// failingProc runs past its first quantum, then panics, while the
// process before it is parked mid-run.
type failingProc struct{}

func (failingProc) Name() string         { return "failing" }
func (failingProc) SbrkSuperpages() bool { return false }
func (failingProc) Run(env workload.Env) {
	for i := 0; i < 1_000_000; i++ {
		env.Step(1)
	}
	panic("process fails")
}

func TestMultiProcessPanicReachesCaller(t *testing.T) {
	ws := []workload.Workload{compress.New(compress.SmallConfig()), failingProc{}}
	checkThreadPanic(t, "process fails", func() { NewMulti(small().WithTLB(64), ws, 200_000).Run() })
}
