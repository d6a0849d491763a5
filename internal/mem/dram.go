// Package mem models the machine's installed DRAM: a sparse byte store
// addressed by real physical address, plus the physical frame allocator the
// OS uses. Timing is not modelled here — the memory controller
// (internal/mmc) charges DRAM latency; this package is pure state.
package mem

import (
	"encoding/binary"
	"fmt"

	"shadowtlb/internal/arch"
)

// slabFrames is how many frames one storage slab holds (1 MB slabs).
const slabFrames = 256

// DRAM is the installed physical memory. Storage is allocated lazily in
// 1 MB slabs, so simulating a 1 GB machine costs only the pages actually
// touched. The frame directory is a dense, pointer-free uint32 slice
// indexed by frame number: every simulated reference resolves a frame,
// so the lookup must be a plain index — and keeping the directory free
// of pointers means the garbage collector never scans it.
type DRAM struct {
	size    uint64   // installed bytes; addresses >= size are not backed
	dir     []uint32 // frame number -> 1 + slab slot index; 0 = untouched
	slabs   [][]byte // each slabFrames*PageSize bytes
	used    int      // frame slots used in the newest slab
	touched int      // materialized frames
}

// NewDRAM returns a DRAM of the given installed size in bytes. Size must
// be a multiple of the base page size.
func NewDRAM(size uint64) *DRAM {
	if size%arch.PageSize != 0 {
		panic(fmt.Sprintf("mem: DRAM size %d not page aligned", size))
	}
	return &DRAM{size: size, dir: make([]uint32, size/arch.PageSize), used: slabFrames}
}

// Size returns the installed DRAM size in bytes.
func (d *DRAM) Size() uint64 { return d.size }

// Frames returns the number of installed 4 KB frames.
func (d *DRAM) Frames() uint64 { return d.size / arch.PageSize }

// Contains reports whether p falls inside installed DRAM. Addresses
// outside installed DRAM are candidates for shadow space.
func (d *DRAM) Contains(p arch.PAddr) bool { return uint64(p) < d.size }

// frame returns the backing slice for p's frame, allocating it on first
// touch. Panics if p is outside installed memory: the memory controller
// must have resolved shadow addresses before storage is accessed.
func (d *DRAM) frame(p arch.PAddr) []byte {
	if !d.Contains(p) {
		panic(fmt.Sprintf("mem: access to non-DRAM physical address %v (installed %d MB)",
			p, d.size/arch.MB))
	}
	fn := p.FrameNum()
	idx := d.dir[fn]
	if idx == 0 {
		if d.used == slabFrames {
			d.slabs = append(d.slabs, make([]byte, slabFrames*arch.PageSize))
			d.used = 0
		}
		idx = uint32((len(d.slabs)-1)*slabFrames + d.used + 1)
		d.used++
		d.touched++
		d.dir[fn] = idx
	}
	slot := uint64(idx - 1)
	off := (slot % slabFrames) * arch.PageSize
	return d.slabs[slot/slabFrames][off : off+arch.PageSize]
}

// Page returns the storage of the frame holding p, materializing it on
// first touch. A frame's storage never moves once materialized (slabs
// are never reallocated), so a caller may keep the pointer for as long
// as it knows the frame still backs what it maps.
func (d *DRAM) Page(p arch.PAddr) *[arch.PageSize]byte {
	return (*[arch.PageSize]byte)(d.frame(p))
}

// Read copies len(buf) bytes starting at physical address p into buf,
// crossing frame boundaries as needed.
func (d *DRAM) Read(p arch.PAddr, buf []byte) {
	for len(buf) > 0 {
		f := d.frame(p)
		off := p.PageOff()
		n := copy(buf, f[off:])
		buf = buf[n:]
		p += arch.PAddr(n)
	}
}

// Write copies buf into physical memory starting at address p, crossing
// frame boundaries as needed.
func (d *DRAM) Write(p arch.PAddr, buf []byte) {
	for len(buf) > 0 {
		f := d.frame(p)
		off := p.PageOff()
		n := copy(f[off:], buf)
		buf = buf[n:]
		p += arch.PAddr(n)
	}
}

// ReadU32 reads a little-endian 32-bit word at p (used by the MTLB's
// hardware fill engine to load 4-byte mapping entries).
func (d *DRAM) ReadU32(p arch.PAddr) uint32 {
	if off := p.PageOff(); off <= arch.PageSize-4 {
		return binary.LittleEndian.Uint32(d.frame(p)[off:])
	}
	var b [4]byte
	d.Read(p, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian 32-bit word at p.
func (d *DRAM) WriteU32(p arch.PAddr, v uint32) {
	if off := p.PageOff(); off <= arch.PageSize-4 {
		binary.LittleEndian.PutUint32(d.frame(p)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.Write(p, b[:])
}

// ReadU64 reads a little-endian 64-bit word at p. Words that fit inside
// one frame — every aligned access — decode straight from the frame's
// storage; only frame-straddling words take the generic copy path.
func (d *DRAM) ReadU64(p arch.PAddr) uint64 {
	if off := p.PageOff(); off <= arch.PageSize-8 {
		return binary.LittleEndian.Uint64(d.frame(p)[off:])
	}
	var b [8]byte
	d.Read(p, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian 64-bit word at p.
func (d *DRAM) WriteU64(p arch.PAddr, v uint64) {
	if off := p.PageOff(); off <= arch.PageSize-8 {
		binary.LittleEndian.PutUint64(d.frame(p)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Write(p, b[:])
}

// ZeroFrame zeroes the whole frame containing p, equivalent to writing
// a page of zero bytes at the frame base but without a source buffer:
// the kernel's zero-fill path calls this once per fault.
func (d *DRAM) ZeroFrame(p arch.PAddr) {
	f := d.frame(p.PageBase())
	for i := range f {
		f[i] = 0
	}
}

// TouchedFrames returns how many distinct frames have been written or read
// (i.e. materialized); useful for memory-footprint assertions in tests.
func (d *DRAM) TouchedFrames() int { return d.touched }
