package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"shadowtlb/internal/arch"
)

// TestIndexMatchesScanModel drives the indexed TLB and the scan model
// (oracle_test.go) with the same seeded random operation sequences and
// requires identical observable behaviour after every operation: the
// entry Lookup and Probe return (slot and contents), the entry Insert
// displaces, Stats, ValidCount, Reach and the VisitValid sequence. The
// sequences mix page classes, plant superpage/4 KB pairs that overlap,
// install wired entries where the geometry allows, and purge by
// address, by range and wholesale. CheckConsistent must hold throughout.
func TestIndexMatchesScanModel(t *testing.T) {
	geoms := []struct {
		name  string
		cfg   Config
		wired bool
	}{
		{"fa4", FullyAssociative(4), true},
		{"fa64", FullyAssociative(64), true},
		{"fa96", FullyAssociative(96), true},
		{"fa256", FullyAssociative(256), true},
		{"sa128x2", SetAssociative(128, 2), false},
		{"sa96x2", SetAssociative(96, 2), false},
		{"sa128x128", SetAssociative(128, 128), true},
	}
	ops := 6000
	if testing.Short() {
		ops = 2000
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				runAgainstModel(t, g.cfg, g.wired, seed, ops)
			})
		}
	}
}

// modelRun holds one paired run: the TLB under test, the scan model, and
// the generator of operands.
type modelRun struct {
	t     *testing.T
	got   *TLB
	want  *scanTLB
	rng   *rand.Rand
	pages uint64 // addresses are drawn from [0, pages*4KB)
	wired bool
	op    int
	desc  string
}

func runAgainstModel(t *testing.T, cfg Config, wired bool, seed int64, ops int) {
	r := &modelRun{
		t:     t,
		got:   New(cfg),
		want:  newScan(cfg),
		rng:   rand.New(rand.NewSource(seed)),
		pages: uint64(2*cfg.Entries + 16),
		wired: wired,
	}
	// A full consistency audit is quadratic in the entry count; keep
	// the big geometries affordable.
	every := 1
	if cfg.Entries > 100 {
		every = 8
	}
	for r.op = 0; r.op < ops; r.op++ {
		r.step()
		r.compareState()
		if r.op%every == 0 {
			if err := r.got.CheckConsistent(); err != nil {
				t.Fatalf("op %d (%s): %v", r.op, r.desc, err)
			}
		}
	}
	if err := r.got.CheckConsistent(); err != nil {
		t.Fatalf("end: %v", err)
	}
}

// classFor draws a page class: mostly 4 KB, with every superpage size
// represented, or the TLB's uniform class.
func (r *modelRun) classFor() arch.PageSizeClass {
	if r.got.cfg.Uniform {
		return r.got.cfg.UniformClass
	}
	switch x := r.rng.Intn(100); {
	case x < 55:
		return arch.Page4K
	case x < 72:
		return arch.Page16K
	case x < 84:
		return arch.Page64K
	case x < 92:
		return arch.Page256K
	case x < 97:
		return arch.Page1M
	case x < 99:
		return arch.Page4M
	default:
		return arch.Page16M
	}
}

func (r *modelRun) addr() uint64 {
	return r.rng.Uint64() % (r.pages << arch.PageShift)
}

func (r *modelRun) entry(c arch.PageSizeClass, addr uint64) Entry {
	return Entry{
		Class:      c,
		Tag:        addr &^ c.Mask(),
		Target:     (r.rng.Uint64() % (1 << 40)) &^ c.Mask(),
		ReadOnly:   r.rng.Intn(4) == 0,
		Supervisor: r.rng.Intn(8) == 0,
	}
}

// canWire reports whether one more wired entry keeps every set able to
// take an insert (a fully wired set makes Insert panic by design).
func (r *modelRun) canWire() bool {
	if !r.wired {
		return false
	}
	n := 0
	r.want.VisitValid(func(e Entry) {
		if e.Wired {
			n++
		}
	})
	return n < r.got.cfg.Ways/4
}

func (r *modelRun) step() {
	switch x := r.rng.Intn(100); {
	case x < 40:
		e := r.entry(r.classFor(), r.addr())
		if r.rng.Intn(40) == 0 && r.canWire() {
			e.Wired = true
		}
		r.insert(e)
	case x < 45 && !r.got.cfg.Uniform:
		// An overlapping pair: a 4 KB page, then a superpage over it
		// whose base is elsewhere (so the page survives), or the same
		// two in the other order (the page then overwrites the
		// superpage in place).
		a := r.addr() | arch.PageSize
		c := arch.PageSizeClass(1 + r.rng.Intn(arch.NumPageClasses-1))
		small, big := r.entry(arch.Page4K, a), r.entry(c, a)
		if r.rng.Intn(2) == 0 {
			r.insert(small)
			r.insert(big)
		} else {
			r.insert(big)
			r.insert(small)
		}
	case x < 65:
		a := r.addr()
		r.desc = fmt.Sprintf("Lookup(%#x)", a)
		r.sameEntry(r.got.Lookup(a), r.want.Lookup(a))
	case x < 75:
		a := r.addr()
		r.desc = fmt.Sprintf("Probe(%#x)", a)
		r.sameEntry(r.got.Probe(a), r.want.Probe(a))
	case x < 88:
		a := r.addr()
		r.desc = fmt.Sprintf("FastHit(%#x)", a)
		ge, we := r.got.Probe(a), r.want.Probe(a)
		r.sameEntry(ge, we)
		if ge != nil {
			r.got.FastHit(ge)
			r.want.FastHit(we)
		}
	case x < 94:
		a := r.addr()
		r.desc = fmt.Sprintf("Purge(%#x)", a)
		if g, w := r.got.Purge(a), r.want.Purge(a); g != w {
			r.t.Fatalf("op %d %s = %v, model %v", r.op, r.desc, g, w)
		}
	case x < 99:
		base := r.addr() &^ arch.PageMask
		size := uint64(1+r.rng.Intn(64)) << arch.PageShift
		r.desc = fmt.Sprintf("PurgeRange(%#x, %#x)", base, size)
		if g, w := r.got.PurgeRange(base, size), r.want.PurgeRange(base, size); g != w {
			r.t.Fatalf("op %d %s = %d, model %d", r.op, r.desc, g, w)
		}
	default:
		r.desc = "PurgeAll"
		r.got.PurgeAll()
		r.want.PurgeAll()
	}
}

func (r *modelRun) insert(e Entry) {
	r.desc = fmt.Sprintf("Insert(%v %#x wired=%v)", e.Class, e.Tag, e.Wired)
	g, w := r.got.Insert(e), r.want.Insert(e)
	if !sameFields(g, w) {
		r.t.Fatalf("op %d %s evicted %+v, model evicted %+v", r.op, r.desc, g, w)
	}
}

// sameEntry compares a returned entry pointer with the model's: both
// nil, or the same slot with the same contents.
func (r *modelRun) sameEntry(g, w *Entry) {
	r.t.Helper()
	if (g == nil) != (w == nil) {
		r.t.Fatalf("op %d %s returned %+v, model %+v", r.op, r.desc, g, w)
	}
	if g == nil {
		return
	}
	if int(g.slot) != r.want.slotOf(w) || !sameFields(*g, *w) {
		r.t.Fatalf("op %d %s returned slot %d %+v, model slot %d %+v",
			r.op, r.desc, g.slot, *g, r.want.slotOf(w), *w)
	}
}

// sameFields compares two entries on everything but the index's own
// bookkeeping (slot and stamp).
func sameFields(a, b Entry) bool {
	a.slot, a.stamp, b.slot, b.stamp = 0, 0, 0, 0
	return a == b
}

func (r *modelRun) compareState() {
	r.t.Helper()
	if r.got.Stats != r.want.Stats {
		r.t.Fatalf("op %d %s: stats %+v, model %+v", r.op, r.desc, r.got.Stats, r.want.Stats)
	}
	if g, w := r.got.ValidCount(), r.want.ValidCount(); g != w {
		r.t.Fatalf("op %d %s: ValidCount %d, model %d", r.op, r.desc, g, w)
	}
	if g, w := r.got.Reach(), r.want.Reach(); g != w {
		r.t.Fatalf("op %d %s: Reach %d, model %d", r.op, r.desc, g, w)
	}
	var gs, ws []Entry
	r.got.VisitValid(func(e Entry) { gs = append(gs, e) })
	r.want.VisitValid(func(e Entry) { ws = append(ws, e) })
	for i := range gs {
		if !sameFields(gs[i], ws[i]) {
			r.t.Fatalf("op %d %s: VisitValid[%d] = %+v, model %+v", r.op, r.desc, i, gs[i], ws[i])
		}
	}
}
