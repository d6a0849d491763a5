package workload

import "shadowtlb/internal/arch"

// Batched reference delivery. Workload inner loops that can precompute a
// run of references hand them to the environment as a slice instead of
// one interface call per access. Semantics are defined to be exactly
// per-reference issue order — a Stream of N refs is indistinguishable
// from N Load/Store calls each followed by its Step — so environments
// may implement Streamer merely to cut call overhead, never to change
// behaviour. Workloads keep the batch in a fixed-size stack array, so
// delivery allocates nothing.

// Ref is one memory reference in a batch: a load or store of Size bytes
// at VA (Val is the store value), followed by Step non-memory
// instructions.
type Ref struct {
	VA    arch.VAddr
	Val   uint64
	Size  uint8
	Store bool
	Step  uint32
}

// Streamer is an optional Env extension for batched delivery.
type Streamer interface {
	// Stream issues each reference in order, exactly as the equivalent
	// sequence of Load/Store/Step calls would.
	Stream(refs []Ref)
}

// Deliver issues refs through env.Stream when the environment supports
// it, falling back to per-reference calls otherwise. The fallback makes
// batching purely an optimization: any Env works.
func Deliver(env Env, refs []Ref) {
	if s, ok := env.(Streamer); ok {
		s.Stream(refs)
		return
	}
	for i := range refs {
		r := &refs[i]
		if r.Store {
			env.Store(r.VA, int(r.Size), r.Val)
		} else {
			env.Load(r.VA, int(r.Size))
		}
		if r.Step > 0 {
			env.Step(int(r.Step))
		}
	}
}

// RunPages is the maximum number of distinct pages a compiled run may
// span. Four covers the common alternation patterns (source/destination
// buffers, key/count arrays) that make single-page runs degenerate.
const RunPages = 4

// Unretirable is the RefRun.Cycles value of a run that can never be
// retired in bulk: a single reference whose folded step alone exceeds
// the compiler's cycle cap.
const Unretirable = ^uint8(0)

// RefRun summarizes a compile-time stretch of consecutive references
// spanning at most RunPages distinct pages: how many refs and folded
// instruction cycles it covers, how many of them are stores, and its
// footprint — the pages it touches and, within them, exactly the cache
// lines it touches and which of those it stores to. A consuming CPU that
// can prove every footprint line cache-resident (and every written line
// silently writable) with all the pages' TLB entries already referenced
// retires the whole stretch as pure counter arithmetic instead of
// walking it reference by reference.
//
// The compiler caps a run at 32 cycles, hence at most 32 references
// and 32 lines, so the counts fit in bytes. The footprint lives in the
// RefCols beside the run: the run's pages are RunVPN[Page:Page+NPages]
// and its lines RunLines[Line:Line+NLines].
type RefRun struct {
	Start  uint32 // index of the first ref, in the same space as Bit0
	Page   uint32 // first footprint page, an index into RefCols.RunVPN
	Line   uint32 // first footprint line, an index into RefCols.RunLines
	Count  uint8  // references in the run
	Cycles uint8  // Count + folded steps, or Unretirable
	Stores uint8  // stores among the references; the rest are loads
	NPages uint8  // footprint pages, at most RunPages
	NLines uint8  // footprint lines: each distinct line touched, once
}

// Bit layout of a RunLine.
const (
	runLineBits      = arch.PageShift - arch.LineShift // line index within a page
	runLineWritten   = 1 << runLineBits
	runLinePageShift = runLineBits + 1
)

// RunLine is one cache line of a run's footprint, packed into 16 bits:
// the line's index within its base page, whether the run stores to it,
// and which of the run's pages it lies in (an index into the run's
// RunVPN entries).
type RunLine uint16

// NewRunLine packs line index li of the run's page k.
func NewRunLine(k int, li uint64, written bool) RunLine {
	l := RunLine(k)<<runLinePageShift | RunLine(li)
	if written {
		l |= runLineWritten
	}
	return l
}

// Page returns the index of the line's page among the run's pages.
func (l RunLine) Page() int { return int(l >> runLinePageShift) }

// Index returns the line's index within its base page.
func (l RunLine) Index() uint64 { return uint64(l) & (runLineWritten - 1) }

// Written reports whether the run stores to the line.
func (l RunLine) Written() bool { return l&runLineWritten != 0 }

// RefCols is a run of references in column form, the layout the compiled
// replay engine stores: virtual page numbers and page offsets pre-split
// at the page shift, access sizes, folded post-reference instruction
// steps, and a store-op bitmap. Ref i is a load (or store, when bit
// Bit0+i of Store is set) of Size[i] bytes at VPN[i]<<PageShift|Off[i],
// followed by Step[i] non-memory instructions. Stores write StoreVal.
type RefCols struct {
	VPN      []uint32
	Off      []uint16
	Size     []uint8
	Step     []uint32
	Store    []uint64 // bitmap indexed from Bit0
	Bit0     int
	StoreVal uint64
	// Runs optionally carries the precompiled run summaries covering
	// exactly these columns, ordered by Start (indexed in Bit0's space,
	// like the Store bitmap), and RunVPN and RunLines hold their
	// footprints. Purely an accelerator: consumers ignoring them are
	// exact, just slower.
	Runs     []RefRun
	RunVPN   []uint32
	RunLines []RunLine
}

// Len returns the number of references in the run.
func (c *RefCols) Len() int { return len(c.VPN) }

// Ref materializes reference i.
func (c *RefCols) Ref(i int) Ref {
	bit := c.Bit0 + i
	return Ref{
		VA:    arch.VAddr(uint64(c.VPN[i])<<arch.PageShift | uint64(c.Off[i])),
		Val:   c.StoreVal,
		Size:  c.Size[i],
		Store: c.Store[bit>>6]&(1<<(bit&63)) != 0,
		Step:  c.Step[i],
	}
}

// ColStreamer is an optional Env extension for column-form delivery.
// Semantics are the Streamer contract applied to the materialized refs;
// environments implement it to consume the columns without an
// intermediate []Ref.
type ColStreamer interface {
	StreamCols(cols RefCols)
}

// DeliverCols issues a column run through env.StreamCols when supported,
// falling back to per-reference materialization otherwise.
func DeliverCols(env Env, cols RefCols) {
	if s, ok := env.(ColStreamer); ok {
		s.StreamCols(cols)
		return
	}
	for i := 0; i < cols.Len(); i++ {
		r := cols.Ref(i)
		if r.Store {
			env.Store(r.VA, int(r.Size), r.Val)
		} else {
			env.Load(r.VA, int(r.Size))
		}
		if r.Step > 0 {
			env.Step(int(r.Step))
		}
	}
}

var _ Streamer = (*MemEnv)(nil)

// Stream issues the batch against the functional memory.
func (m *MemEnv) Stream(refs []Ref) {
	for i := range refs {
		r := &refs[i]
		if r.Store {
			m.Store(r.VA, int(r.Size), r.Val)
		} else {
			m.Load(r.VA, int(r.Size))
		}
		if r.Step > 0 {
			m.Step(int(r.Step))
		}
	}
}
