package exp_test

import (
	"reflect"
	"sync"
	"testing"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/sim"
)

// TestRegistryOrder pins the experiment ids and their "-exp all" order,
// which downstream output depends on.
func TestRegistryOrder(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "init", "tlbtime", "reach", "swap",
		"spcount", "ablation-allocator", "ablation-check",
		"ablation-fill", "ablation-refbits", "ablation-dram",
		"ext-promotion", "ext-stream", "ext-recolor", "ext-multiprog",
		// schemes and smp must stay after everything above, schemes
		// first: the frozen pre-refactor golden in cmd/mtlbexp requires
		// "-exp all" output to be a byte-identical prefix with the
		// schemes section immediately following it.
		"schemes", "smp",
	}
	if got := exp.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	for _, id := range want {
		d, ok := exp.Lookup(id)
		if !ok {
			t.Errorf("Lookup(%q) missing", id)
			continue
		}
		if d.ID != id || d.Title == "" {
			t.Errorf("descriptor %q malformed: %+v", id, d)
		}
	}
	if _, ok := exp.Lookup("nope"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
}

// recordingRunner wraps a Runner and records the keys requested of it.
type recordingRunner struct {
	inner exp.Runner

	mu   sync.Mutex
	keys map[string]bool
}

func (r *recordingRunner) Result(c exp.Cell) sim.Result {
	r.mu.Lock()
	r.keys[c.Key()] = true
	r.mu.Unlock()
	return r.inner.Result(c)
}

// TestDescriptorsDeclareTheirCells runs every cell-backed experiment at
// small scale and verifies the declaration contract the parallel runner
// relies on: the reduce step requests exactly the cells the descriptor
// declares (prewarming covers everything, and nothing is declared that
// is never used).
func TestDescriptorsDeclareTheirCells(t *testing.T) {
	shared := runner.New(0) // share simulations across experiments, as -exp all does
	for _, d := range exp.Descriptors() {
		if d.Cells == nil {
			continue
		}
		cells := d.Cells(exp.Small)
		declared := map[string]bool{}
		for _, c := range cells {
			declared[c.Key()] = true
		}
		if len(declared) == 0 {
			t.Errorf("%s: declares no cells", d.ID)
			continue
		}
		shared.Warm(cells)
		rec := &recordingRunner{inner: shared, keys: map[string]bool{}}
		if tables := d.Tables(rec, exp.Small); len(tables) == 0 {
			t.Errorf("%s: no tables", d.ID)
		}
		for k := range rec.keys {
			if !declared[k] {
				t.Errorf("%s: reduce requested undeclared cell %s", d.ID, k)
			}
		}
		for k := range declared {
			if !rec.keys[k] {
				t.Errorf("%s: declared cell never requested: %s", d.ID, k)
			}
		}
	}
}
