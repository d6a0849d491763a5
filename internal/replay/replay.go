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
	"math/bits"
	"slices"
	"sort"
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
// and matches what every consumer wants: the CPU's fast path keys its
// memo on the VPN, and offsets never exceed 12 bits. The columns pack
// one ref into 11 bytes + 1 bit against workload.Ref's padded 32; the
// run tables add about 5 bytes per ref more (DESIGN.md §15).
type chunk struct {
	vpn   []uint32 // virtual page number (VA >> arch.PageShift)
	off   []uint16 // page offset (VA & arch.PageMask)
	size  []uint8  // access size in bytes (1, 2, 4, 8)
	step  []uint32 // non-memory instructions folded after this ref
	store []uint64 // op bitmap: bit i set = ref i is a store
	// runs are the compiled run summaries over this chunk's refs,
	// ordered by Start (chunk-relative), and runVPN and runLines their
	// footprints; each is built once, at its exact size, when the chunk
	// is sealed. See workload.RefRun.
	runs     []workload.RefRun
	runVPN   []uint32
	runLines []workload.RunLine
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
// every column, run table, footprint and the segment list.
func (p *Program) Bytes() int {
	n := bytesOf(p.segs) + bytesOf(p.chunks)
	for _, c := range p.chunks {
		n += bytesOf(c.vpn) + bytesOf(c.off) + bytesOf(c.size) + bytesOf(c.step) +
			bytesOf(c.store) + bytesOf(c.runs) + bytesOf(c.runVPN) + bytesOf(c.runLines)
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
	// cuts are the chunk-relative ends of the refs segments closed
	// since cur was opened: runs must not cross them.
	cuts []int
	// runs, runVPN and runLines are scratch run tables, reused for
	// every chunk; sealChunk copies them into the chunk at exact size.
	runs     []workload.RefRun
	runVPN   []uint32
	runLines []workload.RunLine
}

func newBuilder() *builder {
	b := &builder{p: &Program{}, openLo: -1}
	return b
}

// ref appends one memory reference, opening a refs segment if needed.
func (b *builder) ref(va arch.VAddr, size uint8, isStore bool) {
	if b.openLo < 0 {
		b.openLo = b.p.nrefs
	}
	i := b.p.nrefs & chunkMask
	if i == 0 {
		b.sealChunk()
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
		b.cuts = append(b.cuts, b.p.nrefs-(len(b.p.chunks)-1)<<chunkShift)
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

// runCycleCap bounds a compiled run's cycle total. Runs are split at
// this many cycles so that a retiring CPU usually has instruction-fetch
// headroom left (the default fetch period is 120 cycles): a cap near
// the period would make maximal runs retirable only just after a fetch.
const runCycleCap = 32

// finish seals the program and returns it.
func (b *builder) finish() *Program {
	b.closeRun()
	b.sealChunk()
	return b.p
}

// sealChunk compiles the run tables of the chunk being filled, once its
// refs are final (a step folds only into the newest ref). Runs are
// built over the spans runCols hands out, each chunk's refs cut at
// every refs segment's end, so no span ever splits a run.
func (b *builder) sealChunk() {
	c := b.cur
	if c == nil {
		return
	}
	b.runs, b.runVPN, b.runLines = b.runs[:0], b.runVPN[:0], b.runLines[:0]
	lo := 0
	for _, hi := range append(b.cuts, len(c.vpn)) {
		if hi > lo {
			b.buildRuns(c, lo, hi)
			lo = hi
		}
	}
	b.cuts = b.cuts[:0]
	c.runs, c.runVPN, c.runLines = exact(b.runs), exact(b.runVPN), exact(b.runLines)
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// pageLineWords sizes a per-page cache-line bitmap.
const pageLineWords = arch.PageSize / arch.LineSize / 64

// buildRuns appends to the scratch tables the run summaries for refs
// [lo, hi) of c (chunk-relative): maximal stretches spanning at most
// workload.RunPages distinct pages, split at runCycleCap cycles. A
// single reference whose folded step alone exceeds the cap gets an
// unretirable run so every ref stays covered by exactly one run.
func (b *builder) buildRuns(c *chunk, lo, hi int) {
	for j := lo; j < hi; {
		r := workload.RefRun{
			Start: uint32(j),
			Page:  uint32(len(b.runVPN)),
			Line:  uint32(len(b.runLines)),
		}
		// Per-page line bitmaps, flattened into the footprint once the
		// run ends so every touched line appears exactly once.
		var lines, written [workload.RunPages][pageLineWords]uint64
		pages := b.runVPN[r.Page:]
		cyc := uint64(0)
		for ; j < hi; j++ {
			stepc := 1 + uint64(c.step[j])
			if cyc > 0 && cyc+stepc > runCycleCap {
				break
			}
			vpn := c.vpn[j]
			pk := slices.Index(pages, vpn)
			if pk < 0 {
				if len(pages) == workload.RunPages {
					break
				}
				pk = len(pages)
				b.runVPN = append(b.runVPN, vpn)
				pages = b.runVPN[r.Page:]
			}
			li := uint64(c.off[j]) >> arch.LineShift
			lines[pk][li>>6] |= 1 << (li & 63)
			if c.store[j>>6]&(1<<(j&63)) != 0 {
				written[pk][li>>6] |= 1 << (li & 63)
				r.Stores++
			}
			cyc += stepc
		}
		r.Count = uint8(uint32(j) - r.Start)
		r.Cycles = uint8(cyc)
		if cyc > runCycleCap {
			r.Cycles = workload.Unretirable
		}
		r.NPages = uint8(len(pages))
		for k := range pages {
			for w, word := range lines[k] {
				for ; word != 0; word &= word - 1 {
					bit := bits.TrailingZeros64(word)
					wr := written[k][w]>>bit&1 != 0
					b.runLines = append(b.runLines, workload.NewRunLine(k, uint64(w*64+bit), wr))
				}
			}
		}
		r.NLines = uint8(len(b.runLines) - int(r.Line))
		b.runs = append(b.runs, r)
	}
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
	next := 0 // first run of the next refs span, in that span's chunk
	for _, seg := range e.p.segs {
		switch seg.op {
		case opRefs:
			if cs != nil {
				next = e.runCols(cs, seg.lo, seg.hi, next)
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
//
// Runs are built over exactly these spans (sealChunk cuts at every
// segment end), so no span splits a run, and Run hands the spans out in
// ref order. A span's runs therefore start where the previous span's
// ended — at next, or at 0 in a new chunk — and its last run is found
// by binary search on Start among the at most run runs that follow.
// runCols returns the run after its last span's.
func (e *Engine) runCols(cs workload.ColStreamer, lo, hi, next int) int {
	for lo < hi {
		c := e.p.chunks[lo>>chunkShift]
		i := lo & chunkMask
		run := chunkRefs - i
		if run > hi-lo {
			run = hi - lo
		}
		rlo := next
		if i == 0 {
			rlo = 0
		}
		rhi := rlo + sort.Search(min(run, len(c.runs)-rlo), func(k int) bool {
			return c.runs[rlo+k].Start >= uint32(i+run)
		})
		cs.StreamCols(workload.RefCols{
			VPN:      c.vpn[i : i+run],
			Off:      c.off[i : i+run],
			Size:     c.size[i : i+run],
			Step:     c.step[i : i+run],
			Store:    c.store,
			Bit0:     i,
			StoreVal: storeFill,
			Runs:     c.runs[rlo:rhi],
			RunVPN:   c.runVPN,
			RunLines: c.runLines,
		})
		next = rhi
		lo += run
	}
	return next
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
