package exp

import (
	"runtime"
	"testing"
)

// shortSMPCells is the determinism subset exercised under -short (the
// race-detector CI job runs -short): one shared-space workload and the
// multiprogrammed mix at 2 CPUs, with the MTLB fitted.
func shortSMPCells(t *testing.T) []Cell {
	t.Helper()
	var cells []Cell
	for _, name := range []string{"radixp", "mix"} {
		c := smpConfig(true, 2)
		c.Workload, c.Scale = name, Small
		cells = append(cells, c)
	}
	return cells
}

// TestSMPDeterministic is the multicore executor's central guarantee:
// for every cell of the smp family, repeated runs and runs at
// GOMAXPROCS 1, 2 and NumCPU produce bit-identical Results — the slots
// hand the machine from thread to thread at points that depend only on
// the program, never on how the host schedules the thread goroutines.
// The suite is meaningful under -race: the detector proves the threads
// and the round loop share no unsynchronized state while the equality
// checks prove the schedule is pinned. results_small.golden pins what
// the Results are.
func TestSMPDeterministic(t *testing.T) {
	cells := smpCells(Small)
	if testing.Short() {
		cells = shortSMPCells(t)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cells {
		c := c
		t.Run(c.Key(), func(t *testing.T) {
			runtime.GOMAXPROCS(runtime.NumCPU())
			want := c.Simulate()
			if again := c.Simulate(); again != want {
				t.Fatalf("repeated run diverged:\n%+v\n%+v", again, want)
			}
			for _, p := range []int{1, 2, runtime.NumCPU()} {
				runtime.GOMAXPROCS(p)
				if got := c.Simulate(); got != want {
					t.Fatalf("GOMAXPROCS=%d diverged:\n%+v\n%+v", p, got, want)
				}
			}
		})
	}
}
