package cache

import (
	"testing"

	"shadowtlb/internal/arch"
)

// TestIndexShiftMaskEquivalence pins the precomputed shift/mask set
// indexing to the divide/modulo form it replaced, for both power-of-two
// and non-power-of-two set counts and for both indexing modes.
func TestIndexShiftMaskEquivalence(t *testing.T) {
	cfgs := []Config{
		{Size: 4 * arch.KB, LineSize: 32, Ways: 1},                    // 128 sets, pow2
		{Size: 512 * arch.KB, LineSize: 32, Ways: 1},                  // paper default
		{Size: 3 * arch.KB, LineSize: 32, Ways: 1},                    // 96 sets, modulo fallback
		{Size: 6 * arch.KB, LineSize: 64, Ways: 2},                    // 48 sets, fallback
		{Size: 4 * arch.KB, LineSize: 32, Ways: 1, PhysIndexed: true}, // PIPT
	}
	addrs := []uint64{0, 0x20, 0x1000, 0x7FFF, 0x40001000, 0x80240020, ^uint64(0)}
	for _, cfg := range cfgs {
		c := New(cfg)
		for _, va := range addrs {
			for _, pa := range addrs {
				a := va
				if cfg.PhysIndexed {
					a = pa
				}
				want := (a / cfg.LineSize) % c.numSets
				if got := c.index(va, pa); got != want {
					t.Errorf("%+v: index(%#x,%#x) = %d, want %d", cfg, va, pa, got, want)
				}
			}
		}
	}
}

// TestFastHitMatchesAccess drives a deterministic mixed stream through
// two identical caches — one consulting FastHit first, the other always
// taking the full Access path — and requires that (a) FastHit claims a
// hit exactly when Access would report a silent hit, and (b) stats,
// write-backs, upgrades, and final line state stay identical.
func TestFastHitMatchesAccess(t *testing.T) {
	a := small() // FastHit-first
	b := small() // Access-only twin
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}
	for i := 0; i < 20000; i++ {
		// 16 KB of VA over a 4 KB cache: plenty of conflicts; one in
		// three accesses is a write, so upgrades and write-backs occur.
		va := arch.VAddr(next() % (16 * arch.KB) &^ 7)
		pa := arch.PAddr(uint64(va) + 0x40000000)
		kind := arch.Read
		if next()%3 == 0 {
			kind = arch.Write
		}

		fastHit, writable := a.FastHit(va, pa, kind)
		res := b.Access(va, pa, kind)
		if fastHit {
			if !res.Hit || res.NEvents != 0 {
				t.Fatalf("access %d: FastHit claimed a silent hit but Access gave %+v", i, res)
			}
			if kind == arch.Write && !writable {
				t.Fatalf("access %d: FastHit accepted a write but reported non-writable", i)
			}
		} else {
			ra := a.Access(va, pa, kind)
			if ra != res {
				t.Fatalf("access %d: results diverge: %+v vs %+v", i, ra, res)
			}
		}
	}
	if a.Stats != b.Stats || a.WriteBacks != b.WriteBacks || a.Upgrades != b.Upgrades {
		t.Errorf("counters diverge: fast{%+v wb=%d up=%d} full{%+v wb=%d up=%d}",
			a.Stats, a.WriteBacks, a.Upgrades, b.Stats, b.WriteBacks, b.Upgrades)
	}
	if a.ResidentLines() != b.ResidentLines() || a.DirtyLines() != b.DirtyLines() {
		t.Errorf("line state diverges: fast %d/%d, full %d/%d",
			a.ResidentLines(), a.DirtyLines(), b.ResidentLines(), b.DirtyLines())
	}
}

// TestFastHitRefusesUpgrades pins the one hit case the fast path must
// decline: a write to a shared line needs an Upgrade bus event.
func TestFastHitRefusesUpgrades(t *testing.T) {
	c := small()
	c.Access(0x1000, 0x40001000, arch.Read) // line now shared
	before := c.Stats
	if hit, _ := c.FastHit(0x1000, 0x40001000, arch.Write); hit {
		t.Fatal("FastHit accepted a write to a shared line")
	}
	if c.Stats != before {
		t.Errorf("failed FastHit mutated stats: %+v -> %+v", before, c.Stats)
	}
	res := c.Access(0x1008, 0x40001008, arch.Write)
	if !res.Hit || res.NEvents != 1 || res.Events[0].Kind != Upgrade {
		t.Fatalf("slow path after refusal should upgrade: %+v", res)
	}
	// Now modified: the fast path may take writes and reports so.
	if hit, writable := c.FastHit(0x1010, 0x40001010, arch.Write); !hit || !writable {
		t.Errorf("FastHit on a modified line: hit=%t writable=%t, want both", hit, writable)
	}
}

// TestGenMovesOnEveryLineMutation pins the generation the CPU's page
// memo trusts a remembered line by: fills, evictions, upgrades and
// flushes advance it; hits of every kind, FastHit refusals included,
// leave it.
func TestGenMovesOnEveryLineMutation(t *testing.T) {
	c := small()
	const va, pa = 0x1000, 0x40001000
	step := func(what string, moves bool, fn func()) {
		t.Helper()
		g := c.Gen()
		fn()
		if moved := c.Gen() != g; moved != moves {
			t.Errorf("%s: generation moved = %v, want %v", what, moved, moves)
		}
	}
	step("read miss", true, func() { c.Access(va, pa, arch.Read) })
	step("read hit", false, func() { c.Access(va+8, pa+8, arch.Read) })
	step("FastHit read", false, func() { c.FastHit(va, pa, arch.Read) })
	step("FastHit refusing a write to a shared line", false, func() { c.FastHit(va, pa, arch.Write) })
	step("FastRepeatHit", false, func() { c.FastRepeatHit() })
	step("upgrade", true, func() { c.Access(va, pa, arch.Write) })
	step("write hit on a modified line", false, func() { c.Access(va, pa, arch.Write) })
	step("conflict eviction", true, func() { c.Access(va+4*arch.KB, pa+4*arch.KB, arch.Read) })
	step("FlushPage", true, func() { c.FlushPage(va+4*arch.KB, pa+4*arch.KB) })
	step("FlushAll", true, func() { c.FlushAll() })
}
