package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/workload"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindLoad, Size: 8, A: 0x40000000},
		{Kind: KindStore, Size: 4, A: 0x40000123},
		{Kind: KindStep, A: 100},
		{Kind: KindRemap, A: 0x40000000, B: 0x10000},
		{Kind: KindAllocAligned, A: 557056, B: (256 << 10 << 32) | (16 << 10)},
	}
	for _, r := range recs {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != len(recs) {
		t.Errorf("Records = %d", w.Records())
	}

	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope nope"))); err == nil {
		t.Error("expected error for bad magic")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	w.Write(Record{Kind: KindLoad, Size: 8, A: 1})
	w.Flush()
	raw := buf.Bytes()[:buf.Len()-3] // chop the last record

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("expected truncation error, got %v", err)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(kind uint8, size uint8, a, b uint64) bool {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, false)
		rec := Record{Kind: Kind(kind % 7), Size: size, A: a, B: b}
		w.Write(rec)
		if w.Flush() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fakeEnv is a minimal Env that logs calls for recorder verification.
type fakeEnv struct {
	calls []string
	next  arch.VAddr
}

func (f *fakeEnv) Load(va arch.VAddr, size int) uint64 { f.calls = append(f.calls, "load"); return 7 }
func (f *fakeEnv) Store(va arch.VAddr, size int, v uint64) {
	f.calls = append(f.calls, "store")
}
func (f *fakeEnv) Step(n int)               { f.calls = append(f.calls, "step") }
func (f *fakeEnv) Sbrk(n uint64) arch.VAddr { f.calls = append(f.calls, "sbrk"); return 0x10000000 }
func (f *fakeEnv) Remap(arch.VAddr, uint64) bool {
	f.calls = append(f.calls, "remap")
	return true
}
func (f *fakeEnv) AllocRegion(name string, size uint64) arch.VAddr {
	f.calls = append(f.calls, "alloc")
	f.next += 0x100000
	return f.next
}
func (f *fakeEnv) AllocAligned(name string, size, align, off uint64) arch.VAddr {
	f.calls = append(f.calls, "allocaligned")
	f.next += 0x100000
	return f.next
}

func TestRecorderCapturesAndForwards(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	env := &fakeEnv{}
	rec := &Recorder{Env: env, W: w}

	base := rec.AllocRegion("x", 4096)
	rec.Store(base, 8, 42)
	if got := rec.Load(base, 8); got != 7 {
		t.Errorf("Load forwarded wrong: %d", got)
	}
	rec.Step(10)
	rec.Step(0) // not recorded
	rec.Sbrk(64)
	rec.Remap(base, 4096)
	rec.AllocAligned("y", 100, 1<<20, 1<<14)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	if len(env.calls) != 7 {
		t.Errorf("forwarded %d calls: %v", len(env.calls), env.calls)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{KindAllocRegion, KindStore, KindLoad, KindStep, KindSbrk, KindRemap, KindAllocAligned}
	if len(recs) != len(wantKinds) {
		t.Fatalf("recorded %d records", len(recs))
	}
	for i, k := range wantKinds {
		if recs[i].Kind != k {
			t.Errorf("record %d kind = %d, want %d", i, recs[i].Kind, k)
		}
	}
	// AllocAligned packs align and offset.
	last := recs[len(recs)-1]
	if last.B>>32 != 1<<20 || last.B&0xFFFFFFFF != 1<<14 {
		t.Errorf("AllocAligned packing wrong: %#x", last.B)
	}
}

var _ workload.Env = (*fakeEnv)(nil)

func TestHeaderSentinelErrors(t *testing.T) {
	var good bytes.Buffer
	w, _ := NewWriter(&good, false)
	w.Write(Record{Kind: KindStep, A: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), good.Bytes()[:headerBytes]...)

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", hdr[:3], ErrTruncated},
		{"bad magic", []byte("nope nope"), ErrBadMagic},
		{"bad version", mutate(hdr, 4, Version+1), ErrBadVersion},
		{"version 1", mutate(hdr, 4, 1), ErrBadVersion},
		{"unknown flags", mutate(hdr, 6, 0x80|flagSbrkSuper), ErrBadVersion},
		{"arch mismatch", mutate(hdr, 5, arch.PageShift+4), ErrArchMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReader(bytes.NewReader(tc.raw))
			if !errors.Is(err, tc.want) {
				t.Errorf("NewReader = %v, want %v", err, tc.want)
			}
		})
	}
	// Every flag bit but the sbrk mode is reserved: a reader cannot know
	// what a later writer meant by it, so each alone refuses the file.
	for bit := 1; bit < 8; bit++ {
		t.Run(fmt.Sprintf("flag bit %d", bit), func(t *testing.T) {
			_, err := NewReader(bytes.NewReader(mutate(hdr, 6, 1<<bit)))
			if !errors.Is(err, ErrBadVersion) {
				t.Errorf("NewReader = %v, want %v", err, ErrBadVersion)
			}
		})
	}
}

// TestSbrkModeRoundTrip: the writer's sbrk mode lands in the header's
// flags byte, the reader reports it back, and the records that follow
// read unchanged.
func TestSbrkModeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		super bool
		flags byte
	}{
		{"flat", false, 0},
		{"superpage", true, flagSbrkSuper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, tc.super)
			if err != nil {
				t.Fatal(err)
			}
			want := Record{Kind: KindSbrk, A: 1 << 20}
			w.Write(want)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := buf.Bytes()[headerBytes-1]; got != tc.flags {
				t.Errorf("header flags byte = %#02x, want %#02x", got, tc.flags)
			}
			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if r.SbrkSuper() != tc.super {
				t.Errorf("SbrkSuper = %v, want %v", r.SbrkSuper(), tc.super)
			}
			if got, err := r.Next(); err != nil || got != want {
				t.Errorf("first record = %+v, %v; want %+v", got, err, want)
			}
		})
	}
}

// mutate copies b and sets b[i] = v.
func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestTruncatedSentinel(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	w.Write(Record{Kind: KindLoad, Size: 8, A: 1})
	w.Write(Record{Kind: KindStore, Size: 8, A: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3] // short final record

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err = r.Next()
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("short final record: err = %v, want ErrTruncated", err)
	}
	if errors.Is(err, io.EOF) {
		t.Error("truncation must not read as clean EOF")
	}

	// ReadAll surfaces the same failure instead of returning a prefix.
	if _, err := ReadAll(bytes.NewReader(raw)); !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadAll = %v, want ErrTruncated", err)
	}
}

func TestBadRecordKind(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	w.Write(Record{Kind: KindAllocAligned + 1, A: 9})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrBadRecord) {
		t.Errorf("unknown kind: err = %v, want ErrBadRecord", err)
	}
}

func TestCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty trace: err = %v, want io.EOF", err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 0 {
		t.Errorf("ReadAll empty trace = %d recs, %v", len(recs), err)
	}
}
