package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"shadowtlb/internal/arch"
)

// header returns a valid trace header.
func header() []byte {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], Magic)
	hdr[4] = Version
	hdr[5] = arch.PageShift
	return hdr[:]
}

// encode serializes one record the way Writer does.
func encode(r Record) []byte {
	var buf [recordBytes]byte
	buf[0] = byte(r.Kind)
	buf[1] = r.Size
	binary.LittleEndian.PutUint64(buf[2:], r.A)
	binary.LittleEndian.PutUint64(buf[10:], r.B)
	return buf[:]
}

// recorderSeed produces a trace through the real Recorder — one record
// of every kind in a plausible workload order — so the fuzzer starts
// from the byte stream the production writer actually emits.
func recorderSeed() []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, false)
	if err != nil {
		panic(err)
	}
	r := &Recorder{Env: &fakeEnv{}, W: w}
	base := r.AllocRegion("heap", 1<<16)
	r.AllocAligned("table", 1<<14, 1<<12, 64)
	r.Step(120)
	r.Load(base, 8)
	r.Store(base+8, 4, 1)
	r.Sbrk(4096)
	r.Remap(base, 1<<16)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the parser. The contract under
// test: the parser never panics, always terminates, and fails only with
// the documented sentinel errors (or io.EOF at a clean record
// boundary) — a fuzzer finding any other error or a hang has found a
// parser bug.
func FuzzReader(f *testing.F) {
	// A valid empty trace, a valid one-record trace, a full
	// recorder-produced trace, and each header rejection class.
	f.Add(header())
	f.Add(recorderSeed())
	f.Add(recorderSeed()[:len(recorderSeed())-5]) // recorder trace cut mid-record
	f.Add(append(header(), encode(Record{Kind: KindLoad, Size: 8, A: 0x10000})...))
	f.Add(append(header(), encode(Record{Kind: KindAllocAligned, A: 1 << 22, B: 1<<22<<32 | 64})...))
	f.Add(append(header(), 0xFF))                                                 // truncated record
	f.Add(append(header(), encode(Record{Kind: KindAllocAligned + 1})...))        // unknown kind
	f.Add([]byte{})                                                               // truncated header
	f.Add([]byte("MTLB"))                                                         // magic only
	f.Add([]byte{0x42, 0x4C, 0x54, 0x4D, Version + 1, arch.PageShift, 0})         // bad version
	f.Add([]byte{0x42, 0x4C, 0x54, 0x4D, 1, arch.PageShift})                      // version 1
	f.Add([]byte{0x42, 0x4C, 0x54, 0x4D, Version, 13, 0})                         // wrong page shift
	f.Add([]byte{0x42, 0x4C, 0x54, 0x4D, Version, arch.PageShift, 0x81})          // unknown flag
	f.Add([]byte{0x42, 0x4C, 0x54, 0x4D, Version, arch.PageShift, flagSbrkSuper}) // superpage sbrk
	f.Add([]byte("not a trace file at all....."))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrArchMismatch) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("NewReader: non-sentinel error %v", err)
			}
			return
		}
		for i := 0; ; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) {
					t.Fatalf("Next: non-sentinel error %v", err)
				}
				return
			}
			if rec.Kind > KindAllocAligned {
				t.Fatalf("Next returned invalid kind %d without error", rec.Kind)
			}
			if i > len(data)/recordBytes {
				t.Fatalf("more records than the stream can hold: %d from %d bytes", i, len(data))
			}
		}
	})
}

// FuzzRoundTrip drives Writer→Reader with arbitrary record fields: any
// record the writer accepts must read back identical (kinds are clamped
// into the valid range; the writer does not validate, the format does).
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint64(0x10000), uint64(0))
	f.Add(uint8(6), uint8(0), uint64(1<<22), uint64(1<<54|64))
	f.Add(uint8(2), uint8(0), uint64(120), uint64(0))

	f.Fuzz(func(t *testing.T, kind, size uint8, a, b uint64) {
		rec := Record{Kind: Kind(kind % 7), Size: size, A: a, B: b}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, false)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(rec)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadAll of a written trace: %v", err)
		}
		if len(recs) != 1 || recs[0] != rec {
			t.Fatalf("round trip: wrote %+v, read %+v", rec, recs)
		}
	})
}
