// Package trace records memory-reference traces. Recording wraps a
// workload's execution environment and logs every load, store,
// instruction batch and memory-management call; internal/replay
// compiles a saved trace back into a workload that can run on any
// machine configuration.
//
// Trace-driven simulation complements the execution-driven mode: a trace
// captured once can be replayed bit-identically against many
// configurations, which is how the paper-era methodology compared TLB
// designs. The format is a fixed-width binary record stream
// (encoding/binary, little endian) with a magic header.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/workload"
)

// Kind identifies a trace record type.
type Kind uint8

// Record kinds.
const (
	KindLoad Kind = iota
	KindStore
	KindStep
	KindSbrk
	KindRemap
	KindAllocRegion
	KindAllocAligned
)

// Record is one trace event. Field use by kind:
//
//	Load/Store:   A = address, Size = access size
//	Step:         A = instruction count
//	Sbrk:         A = byte count
//	Remap:        A = base, B = size
//	AllocRegion:  A = size
//	AllocAligned: A = size, B = align<<32 | offset (both < 4 GB)
type Record struct {
	Kind Kind
	Size uint8
	A, B uint64
}

// Magic identifies trace files.
const Magic = uint32(0x4D544C42) // "MTLB"

// Version is the current trace format version. The header is the magic
// followed by a version byte, the recording machine's base-page shift
// and a flags byte, so a reader rejects traces from an incompatible
// format or architecture instead of replaying garbage addresses.
// Version 1 had no flags byte and is rejected.
const Version = 2

// flagSbrkSuper, in the header's flags byte, marks a trace recorded
// from a workload that relies on superpage sbrk
// (workload.Workload.SbrkSuperpages). A replay must set the same mode
// to reproduce the live run.
const flagSbrkSuper = 1 << 0

const (
	headerBytes = 4 + 1 + 1 + 1
	recordBytes = 1 + 1 + 8 + 8
)

// Sentinel errors for malformed traces. All errors returned by
// NewReader, Next and ReadAll wrap one of these (or io.EOF at a clean
// end of trace), so callers can distinguish a wrong file from a damaged
// one with errors.Is.
var (
	// ErrBadMagic means the stream does not start with the trace magic:
	// not a trace file at all.
	ErrBadMagic = errors.New("trace: bad magic; not a trace file")
	// ErrBadVersion means the trace was written by an unknown format
	// version, or sets header flags this build does not know.
	ErrBadVersion = errors.New("trace: unsupported format version")
	// ErrArchMismatch means the trace was recorded on a machine whose
	// page geometry differs from this build; replaying it would map
	// every address onto the wrong pages.
	ErrArchMismatch = errors.New("trace: page size mismatch")
	// ErrTruncated means the stream ended mid-header or mid-record.
	ErrTruncated = errors.New("trace: truncated")
	// ErrBadRecord means a record is structurally invalid (unknown
	// kind); the stream is corrupt or misaligned.
	ErrBadRecord = errors.New("trace: invalid record")
)

// Writer serializes records.
type Writer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewWriter writes a trace to w, emitting the header immediately.
// sbrkSuper records the traced workload's sbrk mode in the header.
func NewWriter(w io.Writer, sbrkSuper bool) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], Magic)
	hdr[4] = Version
	hdr[5] = arch.PageShift
	if sbrkSuper {
		hdr[6] = flagSbrkSuper
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) {
	if w.err != nil {
		return
	}
	var buf [recordBytes]byte
	buf[0] = byte(r.Kind)
	buf[1] = r.Size
	binary.LittleEndian.PutUint64(buf[2:], r.A)
	binary.LittleEndian.PutUint64(buf[10:], r.B)
	if _, err := w.w.Write(buf[:]); err != nil {
		w.err = err
		return
	}
	w.n++
}

// Records returns how many records were written.
func (w *Writer) Records() int { return w.n }

// Flush completes the trace, returning any deferred write error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader deserializes records. The reader owns a persistent decode
// buffer, so neither Next nor ReadBatch allocates per record: a local
// buffer sliced into io.ReadFull escapes to the heap on every call,
// which at tens of millions of records per trace was the decode path's
// dominant cost.
type Reader struct {
	r         *bufio.Reader
	sbrkSuper bool
	buf       [batchRecords * recordBytes]byte
}

// batchRecords is how many records one ReadBatch decode buffer holds:
// 32 KB of encoded records, comfortably inside L1/L2 while amortizing
// the io.ReadFull call across ~1800 records.
const batchRecords = 32 * 1024 / recordBytes

// NewReader validates the header — magic, format version, known flags,
// and that the recording machine's page geometry matches this build —
// and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerBytes]byte
	if n, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w header: %d bytes, want %d", ErrTruncated, n, len(hdr))
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w (got 0x%08x)", ErrBadMagic, binary.LittleEndian.Uint32(hdr[:4]))
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("%w %d (this build reads version %d)", ErrBadVersion, hdr[4], Version)
	}
	if hdr[5] != arch.PageShift {
		return nil, fmt.Errorf("%w: trace recorded with %d-byte pages, this build uses %d-byte pages",
			ErrArchMismatch, 1<<hdr[5], arch.PageSize)
	}
	if hdr[6]&^flagSbrkSuper != 0 {
		return nil, fmt.Errorf("%w: unknown header flags 0x%02x", ErrBadVersion, hdr[6])
	}
	return &Reader{r: br, sbrkSuper: hdr[6]&flagSbrkSuper != 0}, nil
}

// SbrkSuper reports the recorded workload's sbrk mode: true when it
// relied on superpage sbrk.
func (r *Reader) SbrkSuper() bool { return r.sbrkSuper }

// Next returns the next record, or io.EOF at the end of the trace.
// A stream ending mid-record wraps ErrTruncated; a record with an
// unknown kind wraps ErrBadRecord.
func (r *Reader) Next() (Record, error) {
	buf := r.buf[:recordBytes]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("%w record: stream ends mid-record", ErrTruncated)
		}
		return Record{}, err
	}
	rec, err := decode(buf)
	if err != nil {
		return Record{}, err
	}
	return rec, nil
}

// ReadBatch decodes up to len(dst) records into dst and returns how
// many it filled. It issues one buffered read per internal batch rather
// than one per record, so bulk consumers (the replay compiler, ReadAll)
// pay the io path ~1800× less often than a Next loop. A short final
// batch is not an error; n == 0 with err == io.EOF marks a clean end of
// trace. Errors wrap the same sentinels as Next.
func (r *Reader) ReadBatch(dst []Record) (int, error) {
	filled := 0
	for filled < len(dst) {
		want := (len(dst) - filled) * recordBytes
		if want > len(r.buf) {
			want = len(r.buf)
		}
		n, err := io.ReadFull(r.r, r.buf[:want])
		if n%recordBytes != 0 {
			return filled, fmt.Errorf("%w record: stream ends mid-record", ErrTruncated)
		}
		for o := 0; o < n; o += recordBytes {
			rec, derr := decode(r.buf[o : o+recordBytes])
			if derr != nil {
				return filled, derr
			}
			dst[filled] = rec
			filled++
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				err = io.EOF // whole records were consumed; clean boundary
			}
			if filled > 0 && err == io.EOF {
				return filled, nil
			}
			return filled, err
		}
	}
	return filled, nil
}

// decode unmarshals one encoded record.
func decode(buf []byte) (Record, error) {
	rec := Record{
		Kind: Kind(buf[0]),
		Size: buf[1],
		A:    binary.LittleEndian.Uint64(buf[2:]),
		B:    binary.LittleEndian.Uint64(buf[10:]),
	}
	if rec.Kind > KindAllocAligned {
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, rec.Kind)
	}
	return rec, nil
}

// ReadAll slurps a whole trace.
func ReadAll(r io.Reader) ([]Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	var batch [batchRecords]Record
	for {
		n, err := tr.ReadBatch(batch[:])
		recs = append(recs, batch[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Recorder wraps an execution environment, recording everything the
// workload does while passing it through.
type Recorder struct {
	Env workload.Env
	W   *Writer
}

var _ workload.Env = (*Recorder)(nil)

// Load records and forwards a load.
func (r *Recorder) Load(va arch.VAddr, size int) uint64 {
	r.W.Write(Record{Kind: KindLoad, Size: uint8(size), A: uint64(va)})
	return r.Env.Load(va, size)
}

// Store records and forwards a store. Values are not recorded: replay
// timing is value-independent, and stores replay with a placeholder.
func (r *Recorder) Store(va arch.VAddr, size int, val uint64) {
	r.W.Write(Record{Kind: KindStore, Size: uint8(size), A: uint64(va)})
	r.Env.Store(va, size, val)
}

// Step records and forwards an instruction batch.
func (r *Recorder) Step(n int) {
	if n <= 0 {
		return
	}
	r.W.Write(Record{Kind: KindStep, A: uint64(n)})
	r.Env.Step(n)
}

// Sbrk records and forwards a heap extension.
func (r *Recorder) Sbrk(n uint64) arch.VAddr {
	r.W.Write(Record{Kind: KindSbrk, A: n})
	return r.Env.Sbrk(n)
}

// Remap records and forwards a superpage request.
func (r *Recorder) Remap(base arch.VAddr, size uint64) bool {
	r.W.Write(Record{Kind: KindRemap, A: uint64(base), B: size})
	return r.Env.Remap(base, size)
}

// AllocRegion records and forwards a region reservation.
func (r *Recorder) AllocRegion(name string, size uint64) arch.VAddr {
	r.W.Write(Record{Kind: KindAllocRegion, A: size})
	return r.Env.AllocRegion(name, size)
}

// AllocAligned records and forwards an aligned reservation.
func (r *Recorder) AllocAligned(name string, size, align, offset uint64) arch.VAddr {
	r.W.Write(Record{Kind: KindAllocAligned, A: size, B: align<<32 | offset})
	return r.Env.AllocAligned(name, size, align, offset)
}
