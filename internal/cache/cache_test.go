package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"shadowtlb/internal/arch"
)

func small() *Cache {
	// 4 KB direct-mapped cache, 32 B lines: 128 sets.
	return New(Config{Size: 4 * arch.KB, LineSize: arch.LineSize, Ways: 1})
}

func TestReadMissThenHit(t *testing.T) {
	c := small()
	r := c.Access(0x1000, 0x40001000, arch.Read)
	if r.Hit {
		t.Fatal("cold access should miss")
	}
	if r.NEvents != 1 || r.Events[0].Kind != FillShared || r.Events[0].PAddr != 0x40001000 {
		t.Fatalf("events = %+v", r.Events)
	}
	r = c.Access(0x1004, 0x40001004, arch.Read)
	if !r.Hit || r.NEvents != 0 {
		t.Fatalf("same-line access should hit silently: %+v", r)
	}
}

func TestWriteMissIsExclusiveFill(t *testing.T) {
	c := small()
	r := c.Access(0x2000, 0x40002000, arch.Write)
	if r.Hit || r.Events[0].Kind != FillExclusive {
		t.Fatalf("write miss should be exclusive fill: %+v", r)
	}
	if c.DirtyLines() != 1 {
		t.Errorf("DirtyLines = %d", c.DirtyLines())
	}
}

func TestWriteHitOnSharedLineUpgrades(t *testing.T) {
	c := small()
	c.Access(0x3000, 0x40003000, arch.Read)
	r := c.Access(0x3008, 0x40003008, arch.Write)
	if !r.Hit || r.NEvents != 1 || r.Events[0].Kind != Upgrade {
		t.Fatalf("expected upgrade event: %+v", r)
	}
	if c.Upgrades != 1 {
		t.Errorf("Upgrades = %d", c.Upgrades)
	}
	// Second write: already modified, no event.
	r = c.Access(0x3010, 0x40003010, arch.Write)
	if !r.Hit || r.NEvents != 0 {
		t.Fatalf("write to modified line should be silent: %+v", r)
	}
}

func TestConflictEvictionWritesBackDirtyVictim(t *testing.T) {
	c := small() // 4KB: addresses 4KB apart conflict
	c.Access(0x1000, 0x40001000, arch.Write)
	r := c.Access(0x1000+4*arch.KB, 0x50000000, arch.Read)
	if r.Hit {
		t.Fatal("conflicting access should miss")
	}
	if r.NEvents != 2 {
		t.Fatalf("expected write-back + fill, got %+v", r.Events)
	}
	if r.Events[0].Kind != WriteBack || r.Events[0].PAddr != 0x40001000 {
		t.Errorf("first event should write back victim: %+v", r.Events[0])
	}
	if r.Events[1].Kind != FillShared {
		t.Errorf("second event should be the fill: %+v", r.Events[1])
	}
	if c.WriteBacks != 1 {
		t.Errorf("WriteBacks = %d", c.WriteBacks)
	}
}

func TestCleanVictimNoWriteBack(t *testing.T) {
	c := small()
	c.Access(0x1000, 0x40001000, arch.Read)
	r := c.Access(0x1000+4*arch.KB, 0x50000000, arch.Read)
	if r.NEvents != 1 || r.Events[0].Kind != FillShared {
		t.Fatalf("clean eviction should not write back: %+v", r.Events)
	}
}

func TestVIPTShadowTagging(t *testing.T) {
	// Shadow addresses appear as physical tags: two virtual addresses
	// with the same index but different physical (shadow) tags conflict
	// correctly and write-backs carry the shadow address.
	c := small()
	c.Access(0x1000, 0x80240000, arch.Write) // shadow-tagged line
	if !c.Present(0x1000, 0x80240000) {
		t.Fatal("line should be present under shadow tag")
	}
	r := c.Access(0x1000+4*arch.KB, 0x40000000, arch.Read)
	if r.Events[0].Kind != WriteBack || r.Events[0].PAddr != 0x80240000 {
		t.Fatalf("write-back should target shadow address: %+v", r.Events)
	}
}

func TestFlushPage(t *testing.T) {
	c := New(DefaultConfig())
	// Dirty 3 lines and leave 1 clean within one page.
	c.Access(0x4000, 0x70004000, arch.Write)
	c.Access(0x4020, 0x70004020, arch.Write)
	c.Access(0x4040, 0x70004040, arch.Write)
	c.Access(0x4060, 0x70004060, arch.Read)
	events, inspected := c.FlushPage(0x4000, 0x70004000)
	if inspected != arch.PageSize/arch.LineSize {
		t.Errorf("inspected = %d, want %d", inspected, arch.PageSize/arch.LineSize)
	}
	if len(events) != 3 {
		t.Errorf("write-backs = %d, want 3", len(events))
	}
	for _, e := range events {
		if e.Kind != WriteBack {
			t.Errorf("event kind = %v", e.Kind)
		}
	}
	if c.ResidentLines() != 0 {
		t.Errorf("ResidentLines after flush = %d", c.ResidentLines())
	}
}

func TestFlushPageUnalignedPanics(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.FlushPage(0x123, 0x123)
}

func TestFlushAll(t *testing.T) {
	c := small()
	c.Access(0x1000, 0x40001000, arch.Write)
	c.Access(0x1020, 0x40001020, arch.Read) // different set: no conflict
	events := c.FlushAll()
	if len(events) != 1 || events[0].PAddr != 0x40001000 {
		t.Errorf("FlushAll events = %+v", events)
	}
	if c.ResidentLines() != 0 {
		t.Error("cache should be empty")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Size: 100, LineSize: 32, Ways: 1})
}

func TestSetAssociativeHoldsConflicts(t *testing.T) {
	c := New(Config{Size: 4 * arch.KB, LineSize: arch.LineSize, Ways: 2})
	// Two conflicting lines fit in a 2-way set.
	c.Access(0x1000, 0x40001000, arch.Read)
	c.Access(0x1000+2*arch.KB, 0x50000000, arch.Read)
	if !c.Present(0x1000, 0x40001000) || !c.Present(0x1000+2*arch.KB, 0x50000000) {
		t.Error("2-way cache should hold both conflicting lines")
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		FillShared: "fill-shared", FillExclusive: "fill-exclusive",
		Upgrade: "upgrade", WriteBack: "write-back",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// Property: resident line count never exceeds capacity, and an access
// that just completed is always present immediately afterwards.
func TestResidencyInvariantProperty(t *testing.T) {
	f := func(ops []uint16, writes []bool) bool {
		c := small()
		capLines := int(c.Config().Size / c.Config().LineSize)
		for i, op := range ops {
			va := arch.VAddr(op) << arch.LineShift
			pa := arch.PAddr(uint64(va) + 0x40000000)
			kind := arch.Read
			if i < len(writes) && writes[i] {
				kind = arch.Write
			}
			c.Access(va, pa, kind)
			if !c.Present(va, pa) {
				return false
			}
			if c.ResidentLines() > capLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every write-back event carries the physical address of a line
// that was previously filled with a Write or upgraded, never a read-only
// line.
func TestWriteBackOnlyDirtyProperty(t *testing.T) {
	f := func(ops []uint16, writes []bool) bool {
		c := small()
		dirty := map[arch.PAddr]bool{}
		for i, op := range ops {
			va := arch.VAddr(op) << arch.LineShift
			pa := arch.PAddr(uint64(va) + 0x40000000)
			kind := arch.Read
			if i < len(writes) && writes[i] {
				kind = arch.Write
			}
			res := c.Access(va, pa, kind)
			for _, e := range res.Events[:res.NEvents] {
				if e.Kind == WriteBack && !dirty[e.PAddr] {
					return false
				}
			}
			if kind == arch.Write {
				dirty[pa.LineBase()] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLineIs16Bytes pins the line layout: a state byte and the physical
// tag, 16 bytes on a 64-bit host, so the default cache's 16,384 lines
// take 256 KB.
func TestLineIs16Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("line layout is sized for 64-bit hosts")
	}
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Errorf("line is %d bytes, want 16", n)
	}
}
