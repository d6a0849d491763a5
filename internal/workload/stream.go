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

// RefCols is a run of references in column form, the layout the compiled
// replay engine stores (its page numbers gathered from a per-chunk
// dictionary): virtual page numbers and page offsets pre-split at the
// page shift, one code byte per reference packing its access
// size and first instruction step, a sparse table of the steps the code
// byte cannot hold, and a store-op bitmap. Reference i is a load (or a
// store, when bit Bit0+i of Store is set) of CodeSize(Code[i]) bytes at
// VPN[i]<<PageShift|Off[i], followed by CodeStep(Code[i]) non-memory
// instructions when that is non-zero, then by each Extra entry whose At
// is Bit0+i, in order. Stores write StoreVal. The columns are the whole
// contract: the simulated CPU reads them in place and finds each
// reference's path through its page memo, keyed on the VPN column.
type RefCols struct {
	VPN      []uint32
	Off      []uint16
	Code     []uint8     // access size and first step, see PackCode
	Extra    []ExtraStep // this run's further steps, in reference order
	Store    []uint64    // bitmap indexed from Bit0
	Bit0     int
	StoreVal uint64
}

// ExtraStep is a step a reference's code byte cannot hold: one longer
// than MaxCodeStep, or any step after the reference's first. Reference
// At, counted from the same origin as the store bitmap, is followed by N
// more non-memory instructions.
type ExtraStep struct{ At, N uint32 }

// A code byte holds the access size less one in its low codeSizeBits
// bits, which covers every size Env accepts (1 to 8 bytes), and the
// reference's first step in the rest, 0 meaning none.
const codeSizeBits = 3

// MaxCodeStep is the longest step a code byte holds.
const MaxCodeStep = 1<<(8-codeSizeBits) - 1

// PackCode returns the code byte of an access of size bytes (1 to 8)
// followed by step instructions (at most MaxCodeStep).
func PackCode(size int, step uint32) uint8 {
	return uint8(size-1) | uint8(step)<<codeSizeBits
}

// CodeSize returns the access size a code byte holds.
func CodeSize(code uint8) int { return int(code&(1<<codeSizeBits-1)) + 1 }

// CodeStep returns the step a code byte holds.
func CodeStep(code uint8) uint32 { return uint32(code >> codeSizeBits) }

// Len returns the number of references in the run.
func (c *RefCols) Len() int { return len(c.VPN) }

// Issue delivers the run to env one call at a time: each reference's
// Load or Store, then each of its steps as a Step call of its own. This
// is the exact per-reference form every batched consumer must match.
// Each Step may be preempted before it runs, so two are never merged.
func (c *RefCols) Issue(env Env) {
	x := c.Extra
	for i := range c.VPN {
		va := arch.VAddr(uint64(c.VPN[i])<<arch.PageShift | uint64(c.Off[i]))
		code := c.Code[i]
		bit := c.Bit0 + i
		if c.Store[bit>>6]&(1<<(bit&63)) != 0 {
			env.Store(va, CodeSize(code), c.StoreVal)
		} else {
			env.Load(va, CodeSize(code))
		}
		if s := CodeStep(code); s > 0 {
			env.Step(int(s))
		}
		for len(x) > 0 && int(x[0].At) == bit {
			env.Step(int(x[0].N))
			x = x[1:]
		}
	}
}

// ColStreamer is an optional Env extension for column-form delivery.
// Semantics are those of RefCols.Issue; environments implement it to
// consume the columns in place.
type ColStreamer interface {
	StreamCols(cols RefCols)
}

// DeliverCols issues a column run through env.StreamCols when supported,
// falling back to per-reference issue otherwise.
func DeliverCols(env Env, cols RefCols) {
	if s, ok := env.(ColStreamer); ok {
		s.StreamCols(cols)
		return
	}
	cols.Issue(env)
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
