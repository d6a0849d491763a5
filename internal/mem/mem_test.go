package mem

import (
	"testing"
	"testing/quick"

	"shadowtlb/internal/arch"
)

func TestDRAMReadWriteRoundTrip(t *testing.T) {
	d := NewDRAM(1 * arch.MB)
	msg := []byte("hello shadow memory")
	d.Write(0x1000, msg)
	got := make([]byte, len(msg))
	d.Read(0x1000, got)
	if string(got) != string(msg) {
		t.Errorf("round trip gave %q", got)
	}
}

func TestDRAMCrossPageAccess(t *testing.T) {
	d := NewDRAM(1 * arch.MB)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i)
	}
	p := arch.PAddr(arch.PageSize - 50) // straddles first page boundary
	d.Write(p, buf)
	got := make([]byte, 100)
	d.Read(p, got)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], byte(i))
		}
	}
	if d.TouchedFrames() != 2 {
		t.Errorf("TouchedFrames = %d, want 2", d.TouchedFrames())
	}
}

func TestDRAMWordAccessors(t *testing.T) {
	d := NewDRAM(64 * arch.KB)
	d.WriteU32(0x100, 0xDEADBEEF)
	if got := d.ReadU32(0x100); got != 0xDEADBEEF {
		t.Errorf("ReadU32 = %#x", got)
	}
	d.WriteU64(0x200, 0x0123456789ABCDEF)
	if got := d.ReadU64(0x200); got != 0x0123456789ABCDEF {
		t.Errorf("ReadU64 = %#x", got)
	}
	// Byte order: low byte first.
	var b [1]byte
	d.Read(0x100, b[:])
	if b[0] != 0xEF {
		t.Errorf("low byte = %#x, want 0xEF (little endian)", b[0])
	}
}

// TestDRAMPageIsFrameStorage pins what the CPU's page memo relies on: a
// frame's Page is the storage the word accessors read and write, and
// it stays put while later frames materialize.
func TestDRAMPageIsFrameStorage(t *testing.T) {
	d := NewDRAM(4 * arch.MB)
	p := d.Page(0x3000)
	p[0x10] = 0xAB
	if got := d.ReadU32(0x3010); got != 0xAB {
		t.Fatalf("ReadU32 through the frame = %#x, want 0xab", got)
	}
	for f := uint64(0); f < d.Frames(); f++ {
		d.WriteU64(arch.FrameToPAddr(f), f)
	}
	if d.Page(0x3000) != p || d.Page(0x3fff) != p {
		t.Fatal("a frame's storage moved once more frames materialized")
	}
	if d.ReadU64(0x3000) != 3 || p[0] != 3 {
		t.Fatal("Page and ReadU64 disagree")
	}
}

func TestDRAMWordRoundTripProperty(t *testing.T) {
	d := NewDRAM(1 * arch.MB)
	f := func(off uint16, v uint64) bool {
		p := arch.PAddr(off) // keep within 64KB+8 < 1MB
		d.WriteU64(p, v)
		return d.ReadU64(p) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMOutOfRangePanics(t *testing.T) {
	d := NewDRAM(64 * arch.KB)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range access")
		}
	}()
	var b [1]byte
	d.Read(arch.PAddr(64*arch.KB), b[:])
}

func TestDRAMSizeAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unaligned size")
		}
	}()
	NewDRAM(100)
}

func TestFrameAllocSequential(t *testing.T) {
	a := NewFrameAlloc(10, 4, Sequential)
	for want := uint64(10); want < 14; want++ {
		got, err := a.Alloc()
		if err != nil || got != want {
			t.Fatalf("Alloc = %d,%v want %d", got, err, want)
		}
	}
	if _, err := a.Alloc(); err != ErrOutOfMemory {
		t.Errorf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestFrameAllocReverse(t *testing.T) {
	a := NewFrameAlloc(0, 3, Reverse)
	got, _ := a.Alloc()
	if got != 2 {
		t.Errorf("first reverse alloc = %d, want 2", got)
	}
}

func TestFrameAllocScatterIsPermutationAndDeterministic(t *testing.T) {
	const n = 256
	a1 := NewFrameAlloc(0, n, Scatter)
	a2 := NewFrameAlloc(0, n, Scatter)
	seen := make(map[uint64]bool)
	sequentialRun := 0
	var prev uint64
	for i := 0; i < n; i++ {
		f1, err := a1.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		f2, _ := a2.Alloc()
		if f1 != f2 {
			t.Fatal("scatter order not deterministic")
		}
		if seen[f1] || f1 >= n {
			t.Fatalf("frame %d repeated or out of range", f1)
		}
		seen[f1] = true
		if i > 0 && f1 == prev+1 {
			sequentialRun++
		}
		prev = f1
	}
	if sequentialRun > n/4 {
		t.Errorf("scatter order looks too sequential: %d adjacent pairs", sequentialRun)
	}
}

func TestFrameAllocFreeAndReuse(t *testing.T) {
	a := NewFrameAlloc(0, 2, Sequential)
	f1, _ := a.Alloc()
	f2, _ := a.Alloc()
	if a.FreeCount() != 0 {
		t.Fatalf("FreeCount = %d", a.FreeCount())
	}
	if !a.InUse(f1) || !a.InUse(f2) {
		t.Fatal("frames should be in use")
	}
	a.Free(f1)
	if a.FreeCount() != 1 || a.InUse(f1) {
		t.Fatal("free bookkeeping wrong")
	}
	got, err := a.Alloc()
	if err != nil || got != f1 {
		t.Errorf("realloc = %d,%v want %d", got, err, f1)
	}
	if a.Total() != 2 {
		t.Errorf("Total = %d", a.Total())
	}
}

func TestFrameAllocDoubleFreePanics(t *testing.T) {
	a := NewFrameAlloc(0, 2, Sequential)
	f, _ := a.Alloc()
	a.Free(f)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	a.Free(f)
}

func TestFrameAllocPAddr(t *testing.T) {
	a := NewFrameAlloc(5, 1, Sequential)
	p, err := a.AllocPAddr()
	if err != nil || p != arch.PAddr(5*arch.PageSize) {
		t.Errorf("AllocPAddr = %v,%v", p, err)
	}
	if _, err := a.AllocPAddr(); err == nil {
		t.Error("expected error when exhausted")
	}
}
