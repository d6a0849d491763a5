package exp_test

import (
	"strings"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
)

// warmed returns a runner pool warmed with experiment id's small-scale
// cells, the way mtlbexp runs an experiment.
func warmed(t *testing.T, id string) *runner.Pool {
	t.Helper()
	d, ok := exp.Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	p := runner.New(0)
	p.Warm(d.Cells(exp.Small))
	return p
}

func TestFig2(t *testing.T) {
	r := exp.Fig2()
	if r.TotalExtent != 512*arch.MB {
		t.Errorf("TotalExtent = %d, want 512MB", r.TotalExtent)
	}
	if r.Regions != 1024+256+128+64+32+16 {
		t.Errorf("Regions = %d", r.Regions)
	}
	out := r.Table.String()
	for _, want := range []string{"16KB", "1024", "16MB", "256MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig3SmallShape(t *testing.T) {
	r := exp.Fig3On(warmed(t, "fig3"), exp.Small)
	if len(r.Cells) != 5*2*3 {
		t.Fatalf("cells = %d, want 30", len(r.Cells))
	}
	for _, name := range exp.WorkloadNames() {
		// Baseline runtimes must not increase with TLB size.
		c64 := r.Cell(name, 64, false)
		c96 := r.Cell(name, 96, false)
		c128 := r.Cell(name, 128, false)
		if c64.Cycles < c96.Cycles || c96.Cycles < c128.Cycles {
			t.Errorf("%s: baseline not monotonic: %d %d %d", name, c64.Cycles, c96.Cycles, c128.Cycles)
		}
		// Normalization base is the 96-entry system.
		if c96.Normalized != 1.0 {
			t.Errorf("%s: base normalization = %v", name, c96.Normalized)
		}
		// MTLB runtimes barely change with CPU TLB size (< 2% spread).
		m64 := r.Cell(name, 64, true)
		m128 := r.Cell(name, 128, true)
		spread := float64(m64.Cycles) / float64(m128.Cycles)
		if spread > 1.02 || spread < 0.98 {
			t.Errorf("%s: MTLB sensitivity to CPU TLB size: %v", name, spread)
		}
	}
}

func TestFig4SmallShape(t *testing.T) {
	r := exp.Fig4On(warmed(t, "fig4"), exp.Small)
	if len(r.Cells) != len(exp.Fig4Configs) {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	// Larger+more associative MTLBs never raise the average fill time.
	worst := r.Cell("64/1w")
	best := r.Cell("512/4w")
	if worst.AvgFillMMC < best.AvgFillMMC {
		t.Errorf("avg fill not monotone: worst %v < best %v", worst.AvgFillMMC, best.AvgFillMMC)
	}
	// The 1-cycle floor: even the best config pays at least ~1 MMC
	// cycle per fill over the no-MTLB system.
	if best.AddedFillMMC < 1.0 {
		t.Errorf("added fill = %v, below the 1-cycle floor", best.AddedFillMMC)
	}
	if worst.MTLBHitRate > best.MTLBHitRate {
		t.Errorf("hit rates not ordered: %v > %v", worst.MTLBHitRate, best.MTLBHitRate)
	}
}

func TestInitCostsMatchesPaperAccounting(t *testing.T) {
	r := exp.InitCosts()
	if r.Pages != 1120 {
		t.Errorf("Pages = %d, want 1120", r.Pages)
	}
	if r.Superpages != 16 {
		t.Errorf("Superpages = %d, want 16", r.Superpages)
	}
	// Paper: flush ~1400 cycles/page. Accept the band 1200-1600.
	if r.FlushPerPage < 1200 || r.FlushPerPage > 1600 {
		t.Errorf("FlushPerPage = %.0f, want ~1400", r.FlushPerPage)
	}
	// Flush dominates the total (paper: 1.50M of 1.66M).
	if float64(r.FlushCycles)/float64(r.TotalCycles) < 0.75 {
		t.Errorf("flush fraction = %.2f, want dominant", float64(r.FlushCycles)/float64(r.TotalCycles))
	}
	// Copying would cost several times more (paper: 11400 vs ~1545).
	if r.RemapAdvantage < 4 {
		t.Errorf("remap advantage = %.1fx, want >= 4x", r.RemapAdvantage)
	}
}

func TestSwapSavings(t *testing.T) {
	r := exp.Swap()
	for _, c := range r.Cells {
		if c.SuperGrainIO != c.PagesExamined {
			t.Errorf("superpage grain must write everything: %d != %d", c.SuperGrainIO, c.PagesExamined)
		}
		// Page grain writes only about the dirty fraction (within
		// rounding: whole-page granularity of the dirtying loop).
		maxExpected := c.PagesExamined*c.DirtyPct/100 + c.PagesExamined/20 + 1
		if c.PageGrainIO > maxExpected {
			t.Errorf("dirty %d%%: page-grain IO %d exceeds %d", c.DirtyPct, c.PageGrainIO, maxExpected)
		}
		if c.DirtyPct == 100 && c.IOSavings > 0.01 {
			t.Errorf("no savings possible at 100%% dirty, got %v", c.IOSavings)
		}
		if c.DirtyPct == 0 && c.PageGrainIO != 0 {
			t.Errorf("clean superpage should need no IO, wrote %d", c.PageGrainIO)
		}
	}
}

func TestSPCountMatchesPaper(t *testing.T) {
	r := exp.SPCount()
	if !r.AllMatch {
		t.Errorf("superpage counts diverge from paper:\n%s", r.Table)
	}
}

func TestAblationAllocator(t *testing.T) {
	r := exp.AblationAllocatorOn(warmed(t, "ablation-allocator"), exp.Small)
	if !r.BucketExhausted {
		t.Error("bucket allocator should exhaust at 300 x 64KB (partition has 256)")
	}
	if r.BuddyExhausted {
		t.Error("buddy allocator should serve 300 x 64KB by splitting")
	}
	// Both allocators give similar runtimes (allocation is off the
	// critical path).
	ratio := float64(r.BuddyCycles) / float64(r.BucketCycles)
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("allocator runtime ratio = %v", ratio)
	}
}

func TestAblationCheck(t *testing.T) {
	r := exp.AblationCheckOn(warmed(t, "ablation-check"), exp.Small)
	if r.NoCheck >= r.WithCheck {
		t.Error("hiding the check cycle should not slow the system")
	}
	if r.CheckCost < 0 || r.CheckCost > 0.15 {
		t.Errorf("check cost = %v, implausible", r.CheckCost)
	}
}

func TestAblationFill(t *testing.T) {
	r := exp.AblationFillOn(warmed(t, "ablation-fill"), exp.Small)
	if r.SoftwareCycles <= r.HardwareCycles {
		t.Error("software fill should be slower")
	}
}

func TestAblationRefBits(t *testing.T) {
	r := exp.AblationRefBits()
	// The cache-warm rescan is invisible to the MMC: coverage well
	// below 100% demonstrates the paper's caveat.
	if r.Coverage > 0.5 {
		t.Errorf("coverage = %v; expected the MMC to miss most re-references", r.Coverage)
	}
	if r.PagesTouched != 64 {
		t.Errorf("PagesTouched = %d", r.PagesTouched)
	}
}

func TestMakeWorkloadUnknown(t *testing.T) {
	if _, err := exp.MakeWorkload("nope", exp.Small); err == nil {
		t.Error("expected error")
	}
}

func TestScaleString(t *testing.T) {
	if exp.Small.String() != "small" || exp.Paper.String() != "paper" {
		t.Error("scale strings wrong")
	}
}

func TestAblationDRAM(t *testing.T) {
	r := exp.AblationDRAMOn(warmed(t, "ablation-dram"), exp.Small)
	// Radix's sequential fills must enjoy a much higher row hit rate
	// than em3d's scattered ones.
	if r.RadixRowHitRate <= r.Em3dRowHitRate {
		t.Errorf("row hit rates not ordered: radix %.2f <= em3d %.2f",
			r.RadixRowHitRate, r.Em3dRowHitRate)
	}
	if r.RadixRowHitRate < 0.3 {
		t.Errorf("radix row hit rate = %.2f, expected substantial", r.RadixRowHitRate)
	}
	// Banked timing must help the streaming program relative to the
	// scattered one.
	radixGain := float64(r.RadixFlat) / float64(r.RadixBanked)
	em3dGain := float64(r.Em3dFlat) / float64(r.Em3dBanked)
	if radixGain <= em3dGain {
		t.Errorf("banked DRAM should favour streaming: radix %.3f vs em3d %.3f",
			radixGain, em3dGain)
	}
}

// TestSMPFamilyShape pins the family's structure: every cell simulates,
// reports its CPU count, and no uniprocessor cell reports a multicore
// overhead.
func TestSMPFamilyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full smp family; skipped under -short")
	}
	res := exp.SMPOn(warmed(t, "smp"), exp.Small)
	want := len(exp.SMPWorkloadNames()) * 2 * len(exp.SMPCPUCounts)
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.MachineCycles == 0 {
			t.Errorf("%s/%v/%d: zero machine cycles", c.Workload, c.MTLB, c.CPUs)
		}
		if c.CPUs == 1 && (c.IPIs != 0 || c.BusStallCycles != 0 || c.BarrierCycles != 0) {
			t.Errorf("%s/%v/1: uniprocessor reports multicore overheads %+v",
				c.Workload, c.MTLB, c)
		}
	}
}
