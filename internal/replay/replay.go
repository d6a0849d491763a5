// Package replay is the batch-compiled trace execution engine: it turns
// a recorded reference trace (a trace file, or a live capture of any
// registered workload) into a Program — exact-size column chunks of
// 64 K references, about 5 bytes each: a 16-bit index into the chunk's
// page dictionary, the page offset, one byte packing the access size
// and first instruction step, and a store bitmap, with a sparse table
// for the steps that byte cannot hold — and drives the simulated CPU
// through workload.ColStreamer in large spans.
//
// Replay eliminates everything a live run pays besides the simulation
// itself: the workload's own computation and the per-access interface
// dispatch through workload.Env. The engine allocates nothing in steady
// state — it gathers each span's page numbers into one reusable buffer
// and the simulated CPU reads the other columns in place — and the
// differential suite proves the replayed counters are bit-identical to
// the live run's (TestReplayMatchesLive).
package replay

import (
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
)

// chunkShift sizes the columnar chunks: 1<<chunkShift refs per chunk,
// so a uint16 indexes any reference or page of a chunk. A chunk is
// built in the builder's scratch columns and sealed at exact size.
const chunkShift = 16

const (
	chunkRefs = 1 << chunkShift
	chunkMask = chunkRefs - 1
)

// span is how many references the engine hands an environment per
// call: it gathers their page numbers into its buffer, 64 KB of them,
// and passes the other columns in place.
const span = 1 << 14

// chunk holds one block of references in column form, 5 bytes and 1 bit
// per reference. The virtual address is pre-split at the page shift at
// compile time because every consumer wants it so — the CPU's page memo
// keys on the page number, and offsets never exceed 12 bits — and a
// chunk touches few pages, so each reference names its page by a
// 16-bit index into the chunk's own dictionary.
type chunk struct {
	page  []uint16             // index into pages
	off   []uint16             // page offset (VA & arch.PageMask)
	code  []uint8              // access size and first step (workload.PackCode)
	store []uint64             // op bitmap: bit i set = ref i is a store
	pages []uint32             // page dictionary: virtual page numbers
	extra []workload.ExtraStep // steps the code bytes cannot hold, in ref order
}

// extras returns the chunk's extra steps of refs [i, i+n).
func (c *chunk) extras(i, n int) []workload.ExtraStep {
	lo := sort.Search(len(c.extra), func(k int) bool { return int(c.extra[k].At) >= i })
	hi := sort.Search(len(c.extra), func(k int) bool { return int(c.extra[k].At) >= i+n })
	return c.extra[lo:hi]
}

// Segment ops. Refs segments execute a run of references from the
// columns; the rest replay the other calls between runs in their
// recorded order: memory management, and a Step that no reference of
// its run precedes.
const (
	opRefs = iota
	opStep
	opSbrk
	opRemap
	opAllocRegion
	opAllocAligned
)

// segment is one step of the compiled program, 24 bytes.
type segment struct {
	a, b uint64 // refs [a, b) for opRefs; the call's operands otherwise
	op   uint8
	name uint32 // alloc ops: index into Program.names
}

// Program is a compiled trace, immutable once built. A Program may be
// shared by any number of Engines; each Engine owns the mutable replay
// state (the gather buffer).
type Program struct {
	chunks []chunk
	segs   []segment
	names  []string // precomputed region names of the alloc ops
	nrefs  int

	// SbrkSuper mirrors the recorded workload's sbrk mode, so replayed
	// runs configure the OS the same way the live run did.
	SbrkSuper bool
	// Workload is the recorded workload's name when known ("" for
	// traces loaded from files, whose format carries no name).
	Workload string
}

// Refs returns the number of compiled memory references.
func (p *Program) Refs() int { return p.nrefs }

// Segments returns the number of program steps (ref runs + control ops).
func (p *Program) Segments() int { return len(p.segs) }

// Layout is a program's memory, split by table. Its byte counts add up
// to Program.Bytes.
type Layout struct {
	Segments int // program steps (ref runs + control ops)
	Columns  int // bytes: page indexes, offsets, code bytes, store bitmaps
	Pages    int // bytes: the chunks' page dictionaries
	Extra    int // bytes: the chunks' step overflow tables
	SegBytes int // bytes: the segment list and the region names
}

// Layout returns the capacity of every table the program holds.
func (p *Program) Layout() Layout {
	l := Layout{Segments: len(p.segs), Columns: bytesOf(p.chunks),
		SegBytes: bytesOf(p.segs) + bytesOf(p.names)}
	for _, n := range p.names {
		l.SegBytes += len(n)
	}
	for i := range p.chunks {
		c := &p.chunks[i]
		l.Columns += bytesOf(c.page) + bytesOf(c.off) + bytesOf(c.code) + bytesOf(c.store)
		l.Pages += bytesOf(c.pages)
		l.Extra += bytesOf(c.extra)
	}
	return l
}

// Bytes returns the memory the program's tables hold.
func (p *Program) Bytes() int {
	l := p.Layout()
	return l.Columns + l.Pages + l.Extra + l.SegBytes
}

// bytesOf returns the bytes s's backing array holds.
func bytesOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// dictSlots sizes the builder's direct-mapped cache in front of the open
// chunk's page dictionary, keyed by the low bits of the page number. A
// page evicted from it and referenced again gets a second dictionary
// entry; at most one entry per reference keeps every index in 16 bits.
const dictSlots = 4096

// dictSlot maps a page number to its dictionary index plus one (0 =
// empty).
type dictSlot struct{ vpn, idx uint32 }

// builder accumulates a Program. The open chunk lives in full-size
// scratch columns, sealed into an exact-size chunk when it fills or the
// program ends.
type builder struct {
	p       *Program
	openLo  int  // start of the open refs run, -1 when none
	stepped bool // the run's last reference has a step already

	n     int // references in the open chunk
	page  [chunkRefs]uint16
	off   [chunkRefs]uint16
	code  [chunkRefs]uint8
	store [chunkRefs / 64]uint64
	pages []uint32
	extra []workload.ExtraStep
	dict  [dictSlots]dictSlot
}

func newBuilder() *builder {
	return &builder{p: &Program{}, openLo: -1}
}

// ref appends one memory reference of size bytes (1 to 8), opening a
// refs segment if needed.
func (b *builder) ref(va arch.VAddr, size int, isStore bool) {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("replay: access size %d", size))
	}
	if b.n == chunkRefs {
		b.seal()
	}
	if b.openLo < 0 {
		b.openLo = b.p.nrefs
	}
	i := b.n
	vpn := uint32(uint64(va) >> arch.PageShift)
	d := &b.dict[vpn&(dictSlots-1)]
	if d.idx == 0 || d.vpn != vpn {
		b.pages = append(b.pages, vpn)
		d.vpn, d.idx = vpn, uint32(len(b.pages))
	}
	b.page[i] = uint16(d.idx - 1)
	b.off[i] = uint16(uint64(va) & arch.PageMask)
	b.code[i] = workload.PackCode(size, 0)
	if isStore {
		b.store[i>>6] |= 1 << (i & 63)
	}
	b.n++
	b.p.nrefs++
	b.stepped = false
}

// step attaches n instructions to the last reference of the open run:
// the first step, when it fits, into the reference's code byte, and any
// other into the chunk's overflow table, so every recorded Step call
// stays a call of its own (the per-reference path issues each apart;
// see RefCols.Issue). Folding Load;Step into one reference is precisely
// the Streamer contract, so replayed counters cannot drift. A step with
// no reference before it in its run, or too long for the table, becomes
// a segment.
func (b *builder) step(n uint64) {
	if n == 0 {
		return
	}
	if b.openLo >= 0 && n <= math.MaxUint32 {
		i := b.n - 1
		if !b.stepped && n <= workload.MaxCodeStep {
			b.code[i] = workload.PackCode(workload.CodeSize(b.code[i]), uint32(n))
		} else {
			b.extra = append(b.extra, workload.ExtraStep{At: uint32(i), N: uint32(n)})
		}
		b.stepped = true
		return
	}
	b.closeRun()
	b.p.segs = append(b.p.segs, segment{op: opStep, a: n})
}

// seal copies the open chunk out at exact size and empties the scratch.
func (b *builder) seal() {
	if b.n == 0 {
		return
	}
	n := b.n
	b.p.chunks = append(b.p.chunks, chunk{
		page:  exact(b.page[:n]),
		off:   exact(b.off[:n]),
		code:  exact(b.code[:n]),
		store: exact(b.store[:(n+63)/64]),
		pages: exact(b.pages),
		extra: exact(b.extra),
	})
	b.n = 0
	b.pages, b.extra = b.pages[:0], b.extra[:0]
	clear(b.store[:])
	clear(b.dict[:])
}

// closeRun seals the open refs segment, if any.
func (b *builder) closeRun() {
	if b.openLo >= 0 {
		b.p.segs = append(b.p.segs, segment{op: opRefs, a: uint64(b.openLo), b: uint64(b.p.nrefs)})
		b.openLo = -1
	}
}

// control emits a non-ref segment.
func (b *builder) control(op uint8, a, b2 uint64) {
	b.closeRun()
	seg := segment{op: op, a: a, b: b2}
	if op == opAllocRegion || op == opAllocAligned {
		// Region names are labels only (bases assign sequentially), so
		// replay timing is independent of them.
		seg.name = uint32(len(b.p.names))
		b.p.names = append(b.p.names, fmt.Sprintf("traced%d", len(b.p.names)+1))
	}
	b.p.segs = append(b.p.segs, seg)
}

// add compiles one trace record.
func (b *builder) add(rec trace.Record) error {
	switch rec.Kind {
	case trace.KindLoad, trace.KindStore:
		if rec.Size < 1 || rec.Size > 8 {
			return fmt.Errorf("%w: access size %d", trace.ErrBadRecord, rec.Size)
		}
		b.ref(arch.VAddr(rec.A), int(rec.Size), rec.Kind == trace.KindStore)
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

// finish seals the program at exact size and returns it.
func (b *builder) finish() *Program {
	b.closeRun()
	b.seal()
	b.p.chunks, b.p.segs, b.p.names = exact(b.p.chunks), exact(b.p.segs), exact(b.p.names)
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

// Load compiles a Program straight from a trace stream, batch-decoding
// through the reader's reusable buffer so even multi-gigabyte traces
// compile in one pass with no per-record reads and no intermediate
// []Record. The program takes its sbrk mode from the trace header.
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
			p := b.finish()
			p.SbrkSuper = tr.SbrkSuper()
			return p, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Engine replays a compiled Program as a workload. It owns one reusable
// gather buffer, so replaying allocates nothing in steady state; an
// Engine is not safe for concurrent Run calls (build one per goroutine
// over the shared Program).
type Engine struct {
	p   *Program
	vpn []uint32 // one span's page numbers, gathered from a dictionary
}

var _ workload.Workload = (*Engine)(nil)

// NewEngine returns an engine over p.
func NewEngine(p *Program) *Engine {
	return &Engine{p: p, vpn: make([]uint32, span)}
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

// Run replays the program against env. Reference runs go out as column
// spans through workload.DeliverCols — for the simulated CPU, one
// concrete method call per span and zero interface dispatch per access;
// environments without ColStreamer get every call one at a time.
func (e *Engine) Run(env workload.Env) {
	for _, seg := range e.p.segs {
		switch seg.op {
		case opRefs:
			e.runCols(env, int(seg.a), int(seg.b))
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
			env.AllocRegion(e.p.names[seg.name], seg.a)
		case opAllocAligned:
			env.AllocAligned(e.p.names[seg.name], seg.a, seg.b>>32, seg.b&0xFFFFFFFF)
		default:
			panic(fmt.Sprintf("replay: unknown segment op %d", seg.op))
		}
	}
}

// runCols hands refs [lo, hi) to env in spans of at most span refs
// within one chunk. Only the page numbers are decoded, from the chunk's
// dictionary into the engine's buffer; every other column is passed in
// place.
func (e *Engine) runCols(env workload.Env, lo, hi int) {
	for lo < hi {
		c := &e.p.chunks[lo>>chunkShift]
		i := lo & chunkMask
		n := min(chunkRefs-i, hi-lo, span)
		vpn, pages := e.vpn[:n], c.pages
		for k, x := range c.page[i : i+n] {
			vpn[k] = pages[x]
		}
		workload.DeliverCols(env, workload.RefCols{
			VPN:      vpn,
			Off:      c.off[i : i+n],
			Code:     c.code[i : i+n],
			Extra:    c.extras(i, n),
			Store:    c.store,
			Bit0:     i,
			StoreVal: storeFill,
		})
		lo += n
	}
}

// storeFill is the placeholder value replayed stores write; the trace
// format records no store values because replay timing is value-
// independent.
const storeFill = 0xD15EA5E
