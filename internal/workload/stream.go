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
// replay engine stores: virtual page numbers and page offsets pre-split
// at the page shift, access sizes, folded post-reference instruction
// steps, and a store-op bitmap. Ref i is a load (or store, when bit
// Bit0+i of Store is set) of Size[i] bytes at VPN[i]<<PageShift|Off[i],
// followed by Step[i] non-memory instructions. Stores write StoreVal.
// The columns are the whole contract: the simulated CPU reads them in
// place and finds each reference's path through its page memo, keyed
// on the VPN column.
type RefCols struct {
	VPN      []uint32
	Off      []uint16
	Size     []uint8
	Step     []uint32
	Store    []uint64 // bitmap indexed from Bit0
	Bit0     int
	StoreVal uint64
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
