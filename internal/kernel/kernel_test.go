package kernel

import (
	"math/rand"
	"testing"

	"shadowtlb/internal/stats"
)

func TestLifecycleAccounting(t *testing.T) {
	k := New(DefaultCosts())
	if c := k.Boot(); c != stats.Cycles(k.Costs.Boot) {
		t.Errorf("Boot = %d", c)
	}
	if c := k.StartProcess(); c != stats.Cycles(k.Costs.ForkExec) {
		t.Errorf("StartProcess = %d", c)
	}
	if c := k.ExitProcess(); c != stats.Cycles(k.Costs.Exit) {
		t.Errorf("ExitProcess = %d", c)
	}
	if k.ProcCycles != stats.Cycles(k.Costs.ForkExec+k.Costs.Exit) {
		t.Errorf("ProcCycles = %d", k.ProcCycles)
	}
}

func TestSyscallCounting(t *testing.T) {
	k := New(DefaultCosts())
	k.SyscallEntry()
	k.SyscallEntry()
	if k.Syscalls != 2 {
		t.Errorf("Syscalls = %d", k.Syscalls)
	}
}

func TestTimerFires(t *testing.T) {
	c := DefaultCosts()
	c.TimerPeriod = 1000
	c.TimerHandler = 50
	k := New(c)
	if got := k.Advance(999); got != 0 {
		t.Errorf("early tick: %d", got)
	}
	if got := k.Advance(1); got != 50 {
		t.Errorf("tick cost = %d, want 50", got)
	}
	// A long span fires multiple ticks.
	if got := k.Advance(3500); got != 150 {
		t.Errorf("3 ticks cost = %d, want 150", got)
	}
	if k.TimerTicks != 4 {
		t.Errorf("TimerTicks = %d", k.TimerTicks)
	}
}

func TestTimerDisabled(t *testing.T) {
	c := DefaultCosts()
	c.TimerPeriod = 0
	k := New(c)
	if got := k.Advance(1_000_000_000); got != 0 {
		t.Errorf("disabled timer charged %d", got)
	}
}

func TestDefaultCostsSanity(t *testing.T) {
	c := DefaultCosts()
	// The paper's flush cost: ~1400 cycles per 4 KB page = 128 lines.
	// Our per-line loop cost alone must stay below that (write-backs
	// supply the remainder).
	if c.FlushPerLine*128 > 1400 {
		t.Errorf("flush loop cost %d exceeds paper's 1400/page", c.FlushPerLine*128)
	}
	// Remapping must be far cheaper than copying (§3.3: 1400 vs 11400).
	if c.PageCopy <= c.FlushPerLine*128+c.RemapPerPage {
		t.Error("copying should cost much more than remapping")
	}
	if c.PageCopy != 11400 {
		t.Errorf("PageCopy = %d, paper reports 11400", c.PageCopy)
	}
}

// tickLoop is the timer as it was first written, one loop iteration per
// period a charge spans. TestAdvanceMatchesTickLoop holds Advance to it.
type tickLoop struct {
	period, handler int
	sinceTick       int
	ticks           uint64
	cycles          stats.Cycles
}

func (m *tickLoop) advance(n stats.Cycles) (spent stats.Cycles, calls int) {
	if m.period <= 0 {
		return 0, 0
	}
	m.sinceTick += int(n)
	for m.sinceTick >= m.period {
		m.sinceTick -= m.period
		m.ticks++
		spent += stats.Cycles(m.handler)
		calls++
	}
	m.cycles += spent
	return spent, calls
}

// TestAdvanceMatchesTickLoop drives Advance and the reference loop with
// one seeded sequence of charges — nothing, one cycle, a period less
// one, a period, several periods at once, and arbitrary spans — and
// requires the same returned cycles, tick count, tick cycles and OnTick
// calls after every charge, for short, odd and default periods and for
// a disabled timer.
func TestAdvanceMatchesTickLoop(t *testing.T) {
	for _, period := range []int{1, 7, 2_400_000, 0, -1} {
		c := DefaultCosts()
		c.TimerPeriod = period
		k := New(c)
		calls := 0
		k.OnTick = func() { calls++ }
		ref := &tickLoop{period: period, handler: c.TimerHandler}

		span := period
		if span <= 0 {
			span = DefaultCosts().TimerPeriod
		}
		rng := rand.New(rand.NewSource(int64(span)))
		for i := 0; i < 5000; i++ {
			var n int
			switch rng.Intn(6) {
			case 0:
				n = 0
			case 1:
				n = 1
			case 2:
				n = span - 1
			case 3:
				n = span
			case 4:
				n = (2+rng.Intn(4))*span + rng.Intn(span)
			default:
				n = rng.Intn(3 * span)
			}
			before := calls
			got := k.Advance(stats.Cycles(n))
			want, wantCalls := ref.advance(stats.Cycles(n))
			if got != want || k.TimerTicks != ref.ticks || k.TimerCycles != ref.cycles || calls-before != wantCalls {
				t.Fatalf("period %d, charge %d (#%d): Advance returned %d, ticks %d, tick cycles %d, %d OnTick calls; the loop gives %d, %d, %d, %d",
					period, n, i, got, k.TimerTicks, k.TimerCycles, calls-before, want, ref.ticks, ref.cycles, wantCalls)
			}
		}
		if period > 0 && ref.ticks == 0 {
			t.Errorf("period %d: no tick fired", period)
		}
	}
}
