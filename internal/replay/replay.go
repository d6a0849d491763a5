// Package replay is the batch-compiled trace execution engine: it turns
// a recorded reference trace (trace v1, or a live capture of any
// registered workload) into a Program — flat, preallocated columnar
// arrays of pre-split virtual page numbers and page offsets, an op
// bitmap, access sizes and folded instruction steps, chunked so the
// replay loop walks cache-resident blocks — and drives the simulated
// CPU through workload.Streamer in large quanta.
//
// Replay eliminates everything a live run pays besides the simulation
// itself: the workload's own computation and the per-access interface
// dispatch through workload.Env. The engine allocates nothing in steady
// state — the simulated CPU reads the columns in place, and other
// environments get one reusable quantum buffer materialized from them —
// and the differential suite proves the replayed counters are
// bit-identical to the live run's (TestReplayMatchesLive).
package replay

import (
	"fmt"
	"io"
	"math"
	"unsafe"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
)

// chunkShift sizes the columnar chunks: 1<<chunkShift refs per chunk.
// 64 K refs ≈ 1 MB of columns per chunk — appended without ever
// re-copying earlier refs, and walked sequentially at replay.
const chunkShift = 16

const (
	chunkRefs = 1 << chunkShift
	chunkMask = chunkRefs - 1
)

// Quantum is how many refs the engine materializes per cpu.Stream call:
// large enough that per-batch overhead (one dynamic dispatch, one
// bounds-checked slice) vanishes, small enough that the decode buffer
// stays cache-resident.
const Quantum = 4096

// chunk holds one block of references in column form. Pre-splitting the
// virtual address at the page shift costs nothing here (compile time)
// and matches what every consumer wants: the CPU's page memo keys on
// the VPN, and offsets never exceed 12 bits. The columns pack one ref
// into 11 bytes + 1 bit against workload.Ref's padded 32.
type chunk struct {
	vpn   []uint32 // virtual page number (VA >> arch.PageShift)
	off   []uint16 // page offset (VA & arch.PageMask)
	size  []uint8  // access size in bytes (1, 2, 4, 8)
	step  []uint32 // non-memory instructions folded after this ref
	store []uint64 // op bitmap: bit i set = ref i is a store
}

// newChunk preallocates full columns so appends never grow them.
func newChunk() *chunk {
	return &chunk{
		vpn:   make([]uint32, 0, chunkRefs),
		off:   make([]uint16, 0, chunkRefs),
		size:  make([]uint8, 0, chunkRefs),
		step:  make([]uint32, 0, chunkRefs),
		store: make([]uint64, (chunkRefs+63)/64),
	}
}

// Segment ops. Refs segments execute a run of references from the
// columns; the rest replay the rare memory-management calls between
// runs in their recorded order.
const (
	opRefs = iota
	opStep
	opSbrk
	opRemap
	opAllocRegion
	opAllocAligned
)

// segment is one step of the compiled program.
type segment struct {
	op     uint8
	lo, hi int    // refs[lo:hi) for opRefs
	a, b   uint64 // operands for control ops
	name   string // precomputed region name for alloc ops
}

// Program is a compiled trace, immutable once built. A Program may be
// shared by any number of Engines; each Engine owns the mutable replay
// state (the quantum buffer).
type Program struct {
	chunks []*chunk
	segs   []segment
	nrefs  int

	// SbrkSuper mirrors the recorded workload's sbrk mode, so replayed
	// runs configure the OS the same way the live run did.
	SbrkSuper bool
	// Workload is the recorded workload's name when known ("" for
	// traces loaded from files, whose v1 format carries no name).
	Workload string
}

// Refs returns the number of compiled memory references.
func (p *Program) Refs() int { return p.nrefs }

// Segments returns the number of program steps (ref runs + control ops).
func (p *Program) Segments() int { return len(p.segs) }

// Bytes returns the memory the program's tables hold: the capacity of
// every column and of the segment list.
func (p *Program) Bytes() int {
	n := bytesOf(p.segs) + bytesOf(p.chunks)
	for _, c := range p.chunks {
		n += bytesOf(c.vpn) + bytesOf(c.off) + bytesOf(c.size) + bytesOf(c.step) +
			bytesOf(c.store)
	}
	return n
}

// bytesOf returns the bytes s's backing array holds.
func bytesOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// builder accumulates a Program.
type builder struct {
	p       *Program
	cur     *chunk // chunk being filled (== last of p.chunks)
	openLo  int    // start of the open refs run, -1 when none
	regions int    // alloc counter for precomputed names
}

func newBuilder() *builder {
	return &builder{p: &Program{}, openLo: -1}
}

// ref appends one memory reference, opening a refs segment if needed.
func (b *builder) ref(va arch.VAddr, size uint8, isStore bool) {
	if b.openLo < 0 {
		b.openLo = b.p.nrefs
	}
	i := b.p.nrefs & chunkMask
	if i == 0 {
		b.cur = newChunk()
		b.p.chunks = append(b.p.chunks, b.cur)
	}
	c := b.cur
	c.vpn = append(c.vpn, uint32(uint64(va)>>arch.PageShift))
	c.off = append(c.off, uint16(uint64(va)&arch.PageMask))
	c.size = append(c.size, size)
	c.step = append(c.step, 0)
	if isStore {
		c.store[i>>6] |= 1 << (i & 63)
	}
	b.p.nrefs++
}

// step folds n instructions into the last ref of the open run when that
// is exact (the ref has no step yet and n fits), and emits a standalone
// step segment otherwise. Folding Load;Step into one Ref is precisely
// the Streamer contract — a Stream of refs is indistinguishable from
// each Load/Store followed by its Step — so replayed counters cannot
// drift.
func (b *builder) step(n uint64) {
	if n == 0 {
		return
	}
	if b.openLo >= 0 && b.p.nrefs > b.openLo && n <= math.MaxUint32 {
		c := b.p.chunks[len(b.p.chunks)-1]
		last := len(c.step) - 1
		if c.step[last] == 0 {
			c.step[last] = uint32(n)
			return
		}
	}
	b.closeRun()
	b.p.segs = append(b.p.segs, segment{op: opStep, a: n})
}

// closeRun seals the open refs segment, if any.
func (b *builder) closeRun() {
	if b.openLo >= 0 {
		b.p.segs = append(b.p.segs, segment{op: opRefs, lo: b.openLo, hi: b.p.nrefs})
		b.openLo = -1
	}
}

// control emits a non-ref segment.
func (b *builder) control(op uint8, a, b2 uint64) {
	b.closeRun()
	seg := segment{op: op, a: a, b: b2}
	if op == opAllocRegion || op == opAllocAligned {
		b.regions++
		// Region names are labels only (bases assign sequentially), so
		// replay timing is independent of them.
		seg.name = fmt.Sprintf("traced%d", b.regions)
	}
	b.p.segs = append(b.p.segs, seg)
}

// add compiles one trace record.
func (b *builder) add(rec trace.Record) error {
	switch rec.Kind {
	case trace.KindLoad:
		b.ref(arch.VAddr(rec.A), rec.Size, false)
	case trace.KindStore:
		b.ref(arch.VAddr(rec.A), rec.Size, true)
	case trace.KindStep:
		b.step(rec.A)
	case trace.KindSbrk:
		b.control(opSbrk, rec.A, 0)
	case trace.KindRemap:
		b.control(opRemap, rec.A, rec.B)
	case trace.KindAllocRegion:
		b.control(opAllocRegion, rec.A, 0)
	case trace.KindAllocAligned:
		b.control(opAllocAligned, rec.A, rec.B)
	default:
		return fmt.Errorf("%w: unknown kind %d", trace.ErrBadRecord, rec.Kind)
	}
	return nil
}

// finish seals the program and returns it.
func (b *builder) finish() *Program {
	b.closeRun()
	return b.p
}

// Compile builds a Program from in-memory records.
func Compile(recs []trace.Record) (*Program, error) {
	b := newBuilder()
	for _, rec := range recs {
		if err := b.add(rec); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// Load compiles a Program straight from a trace v1 stream, batch-
// decoding through the reader's reusable buffer so even multi-gigabyte
// traces compile in one pass with no per-record reads and no
// intermediate []Record.
func Load(r io.Reader) (*Program, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	b := newBuilder()
	var batch [4096]trace.Record
	for {
		n, err := tr.ReadBatch(batch[:])
		for _, rec := range batch[:n] {
			if aerr := b.add(rec); aerr != nil {
				return nil, aerr
			}
		}
		if err == io.EOF {
			return b.finish(), nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Engine replays a compiled Program as a workload. It owns one reusable
// quantum buffer, so replaying allocates nothing in steady state; an
// Engine is not safe for concurrent Run calls (build one per goroutine
// over the shared Program).
type Engine struct {
	p   *Program
	buf []workload.Ref
}

var _ workload.Workload = (*Engine)(nil)

// NewEngine returns an engine over p.
func NewEngine(p *Program) *Engine {
	return &Engine{p: p, buf: make([]workload.Ref, Quantum)}
}

// Name identifies the replayed workload: the recorded workload's name,
// or "trace-replay" for a trace file, which carries none.
func (e *Engine) Name() string {
	if e.p.Workload == "" {
		return "trace-replay"
	}
	return e.p.Workload
}

// SbrkSuperpages reports the recorded workload's sbrk mode.
func (e *Engine) SbrkSuperpages() bool { return e.p.SbrkSuper }

// Run replays the program against env. Reference runs are materialized
// quantum-by-quantum from the columns into the engine's buffer and
// handed to the environment's Stream — for the simulated CPU that is
// one concrete method call per quantum and zero interface dispatch per
// access. Environments without Streamer fall back to per-ref delivery.
func (e *Engine) Run(env workload.Env) {
	cs, _ := env.(workload.ColStreamer)
	st, _ := env.(workload.Streamer)
	for _, seg := range e.p.segs {
		switch seg.op {
		case opRefs:
			if cs != nil {
				e.runCols(cs, seg.lo, seg.hi)
				continue
			}
			for lo := seg.lo; lo < seg.hi; {
				n := seg.hi - lo
				if n > Quantum {
					n = Quantum
				}
				e.fill(lo, n)
				if st != nil {
					st.Stream(e.buf[:n])
				} else {
					workload.Deliver(env, e.buf[:n])
				}
				lo += n
			}
		case opStep:
			for rest := seg.a; rest > 0; {
				n := rest
				if n > math.MaxInt32 {
					n = math.MaxInt32
				}
				env.Step(int(n))
				rest -= n
			}
		case opSbrk:
			env.Sbrk(seg.a)
		case opRemap:
			env.Remap(arch.VAddr(seg.a), seg.b)
		case opAllocRegion:
			env.AllocRegion(seg.name, seg.a)
		case opAllocAligned:
			env.AllocAligned(seg.name, seg.a, seg.b>>32, seg.b&0xFFFFFFFF)
		default:
			panic(fmt.Sprintf("replay: unknown segment op %d", seg.op))
		}
	}
}

// runCols hands refs [lo, hi) to a column-consuming environment in
// chunk-sized spans: no materialization at all — the environment reads
// the compiled columns in place, one call per up-to-64K-ref span.
func (e *Engine) runCols(cs workload.ColStreamer, lo, hi int) {
	for lo < hi {
		c := e.p.chunks[lo>>chunkShift]
		i := lo & chunkMask
		run := min(chunkRefs-i, hi-lo)
		cs.StreamCols(workload.RefCols{
			VPN:      c.vpn[i : i+run],
			Off:      c.off[i : i+run],
			Size:     c.size[i : i+run],
			Step:     c.step[i : i+run],
			Store:    c.store,
			Bit0:     i,
			StoreVal: storeFill,
		})
		lo += run
	}
}

// fill materializes refs [lo, lo+n) from the columns into e.buf. The
// inner loops run within single chunks so the column bases are hoisted
// and every access is sequential.
func (e *Engine) fill(lo, n int) {
	buf := e.buf[:n]
	filled := 0
	for filled < n {
		c := e.p.chunks[(lo+filled)>>chunkShift]
		i := (lo + filled) & chunkMask
		run := chunkRefs - i
		if run > n-filled {
			run = n - filled
		}
		vpn, off, size, step := c.vpn[i:i+run], c.off[i:i+run], c.size[i:i+run], c.step[i:i+run]
		for k := 0; k < run; k++ {
			bit := i + k
			buf[filled+k] = workload.Ref{
				VA:    arch.VAddr(uint64(vpn[k])<<arch.PageShift | uint64(off[k])),
				Val:   storeFill,
				Size:  size[k],
				Store: c.store[bit>>6]&(1<<(bit&63)) != 0,
				Step:  step[k],
			}
		}
		filled += run
	}
}

// storeFill is the placeholder value replayed stores write; the v1
// format records no store values because replay timing is value-
// independent.
const storeFill = 0xD15EA5E
