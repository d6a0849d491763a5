package exp_test

import (
	"testing"

	"shadowtlb/internal/exp"
)

func TestPromotionExtension(t *testing.T) {
	r := exp.Promotion()
	if r.Promotions == 0 {
		t.Fatal("policy never promoted the hot region")
	}
	// Adaptive must beat the no-superpage baseline substantially and
	// land near the explicit-remap result.
	if r.AdaptiveCycles >= r.NoneCycles {
		t.Errorf("adaptive (%d) not faster than none (%d)", r.AdaptiveCycles, r.NoneCycles)
	}
	ratio := float64(r.AdaptiveCycles) / float64(r.ExplicitCycles)
	if ratio > 1.10 {
		t.Errorf("adaptive/explicit = %.3f, want within 10%%", ratio)
	}
}

func TestStreamExtension(t *testing.T) {
	r := exp.StreamOn(warmed(t, "ext-stream"), exp.Small)
	if r.StreamHits == 0 {
		t.Fatal("no stream hits on radix (sequential fills expected)")
	}
	if r.OnCycles >= r.OffCycles {
		t.Errorf("stream buffers slowed radix: %d >= %d", r.OnCycles, r.OffCycles)
	}
	if r.HitPortion < 0.3 {
		t.Errorf("stream hit portion = %.2f, expected substantial", r.HitPortion)
	}
}

func TestMultiprogExtension(t *testing.T) {
	r := exp.Multiprog()
	if r.Speedup < 1.1 {
		t.Errorf("MTLB multiprogramming speedup = %.2f, expected substantial", r.Speedup)
	}
	if r.MTLBTLBCycles*3 > r.BaseTLBCycles {
		t.Errorf("TLB refill not much cheaper with superpages: %d vs %d",
			r.MTLBTLBCycles, r.BaseTLBCycles)
	}
	if r.SwitchesPerRun < 10 {
		t.Errorf("only %d dispatches; quantum not exercised", r.SwitchesPerRun)
	}
}

func TestRecolorExtension(t *testing.T) {
	r := exp.Recolor()
	if r.MissesBefore == 0 {
		t.Fatal("same-color pages did not conflict")
	}
	if r.MissesEliminated < 0.9 {
		t.Errorf("recoloring eliminated %.1f%% of misses, want >90%%", 100*r.MissesEliminated)
	}
	if r.RecolorCycles == 0 {
		t.Error("recoloring cost not charged")
	}
}
