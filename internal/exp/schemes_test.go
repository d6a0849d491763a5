package exp_test

import (
	"strings"
	"testing"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
)

// TestSchemesExperimentShape runs the head-to-head family at small
// scale and pins its structure: one reference plus one cell per
// registered backend for every paper workload, sane normalization, and
// backend measurements present exactly where a backend ran.
func TestSchemesExperimentShape(t *testing.T) {
	r := exp.SchemesOn(warmed(t, "schemes"), exp.Small)
	paper := exp.WorkloadNames()
	names := core.SchemeNames()
	if len(r.Schemes) != len(names) || r.Schemes[0] != core.DefaultScheme {
		t.Fatalf("Schemes = %v, want %v", r.Schemes, names)
	}
	if want := len(paper) * (1 + len(names)); len(r.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(r.Cells), want)
	}
	for _, w := range paper {
		ref := r.Cell(w, "none")
		if ref.Normalized != 1.0 {
			t.Errorf("%s: reference normalization = %v", w, ref.Normalized)
		}
		if ref.MTLBFills != 0 || ref.MTLBHitRate != 0 {
			t.Errorf("%s: reference carries backend measurements: %+v", w, ref)
		}
		for _, scheme := range names {
			c := r.Cell(w, scheme)
			if c.Cycles == 0 || c.Normalized <= 0 {
				t.Errorf("%s/%s: empty result: %+v", w, scheme, c)
			}
			// Every backend removes nearly all TLB-miss time on this
			// machine; none should be slower than the reference by more
			// than the MMC check overhead's worst case.
			if c.Normalized > 1.25 {
				t.Errorf("%s/%s: normalized %v, want <= 1.25", w, scheme, c.Normalized)
			}
			if c.MTLBHitRate <= 0.9 || c.MTLBHitRate > 1 {
				t.Errorf("%s/%s: hit rate %v", w, scheme, c.MTLBHitRate)
			}
			if c.MTLBFills == 0 {
				t.Errorf("%s/%s: no fills recorded", w, scheme)
			}
			if c.AddedFillMMC < 0 {
				t.Errorf("%s/%s: negative added fill cost %v", w, scheme, c.AddedFillMMC)
			}
		}
	}
	// Both tables render every (workload, scheme) row.
	outA, outB := r.TableA.String(), r.TableB.String()
	for _, w := range paper {
		for _, label := range append([]string{"none"}, names...) {
			if !strings.Contains(outA, w) || !strings.Contains(outA, label) {
				t.Errorf("table A missing %s/%s:\n%s", w, label, outA)
			}
			if !strings.Contains(outB, w) || !strings.Contains(outB, label) {
				t.Errorf("table B missing %s/%s:\n%s", w, label, outB)
			}
		}
	}
}
