package tlb

import (
	"fmt"

	"shadowtlb/internal/stats"
)

// scanTLB is the reference model for TLB: the linear-scan implementation
// the index replaced, kept verbatim apart from renaming, dropping the
// mapping generation (superseded by stamps and the shape generation) and
// dropping its most-recent-hit short-circuit. That short-circuit
// returned the last entry a scan had found whenever it still covered
// the address, even when a lower slot covered it too, so with
// overlapping entries the answer depended on lookup history. The
// simulator never installs overlapping entries (every processor-TLB
// entry comes from the hashed page table, whose entries are disjoint),
// so with or without the short-circuit the simulation is the same; the
// model defines the lowest covering slot as the answer, which is what
// the scan computes.
//
// It shares Entry with the real TLB and maintains the same unexported
// nru field, so entries from both compare field for field.
type scanTLB struct {
	cfg   Config
	sets  []scanSet
	Stats stats.HitMiss

	setShift uint
	setMask  uint64
}

type scanSet struct {
	entries []Entry
	valid   int
	nruSet  int
}

func newScan(cfg Config) *scanTLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", cfg.Entries, cfg.Ways))
	}
	numSets := cfg.Entries / cfg.Ways
	if numSets > 1 && !cfg.Uniform {
		panic("tlb: multi-set TLB requires a uniform page class for indexing")
	}
	sets := make([]scanSet, numSets)
	for i := range sets {
		sets[i].entries = make([]Entry, cfg.Ways)
	}
	t := &scanTLB{cfg: cfg, sets: sets}
	t.setShift = cfg.UniformClass.Shift()
	if numSets&(numSets-1) == 0 {
		t.setMask = uint64(numSets - 1)
	}
	return t
}

func (t *scanTLB) setFor(addr uint64) *scanSet {
	if len(t.sets) == 1 {
		return &t.sets[0]
	}
	page := addr >> t.setShift
	if t.setMask != 0 {
		return &t.sets[page&t.setMask]
	}
	return &t.sets[page%uint64(len(t.sets))]
}

// slotOf returns e's position in set-major slot order, the numbering
// TLB uses, or -1 for nil.
func (t *scanTLB) slotOf(e *Entry) int {
	if e == nil {
		return -1
	}
	n := 0
	for si := range t.sets {
		for i := range t.sets[si].entries {
			if &t.sets[si].entries[i] == e {
				return n
			}
			n++
		}
	}
	panic("tlb: entry not in the model")
}

func (t *scanTLB) FastHit(e *Entry) {
	t.Stats.Hit()
	t.touch(t.setFor(e.Tag), e)
}

func (t *scanTLB) Lookup(addr uint64) *Entry {
	s := t.setFor(addr)
	for i := range s.entries {
		e := &s.entries[i]
		if e.covers(addr) {
			t.Stats.Hit()
			t.touch(s, e)
			return e
		}
	}
	t.Stats.Miss()
	return nil
}

func (t *scanTLB) Probe(addr uint64) *Entry {
	s := t.setFor(addr)
	for i := range s.entries {
		if s.entries[i].covers(addr) {
			return &s.entries[i]
		}
	}
	return nil
}

func (t *scanTLB) touch(s *scanSet, hit *Entry) {
	if hit.nru {
		return
	}
	hit.nru = true
	s.nruSet++
	if s.nruSet == s.valid {
		t.age(s, hit)
	}
}

func (t *scanTLB) age(s *scanSet, keep *Entry) {
	for i := range s.entries {
		e := &s.entries[i]
		if e.Valid && e != keep {
			e.nru = false
		}
	}
	s.nruSet = 1
	if keep == nil || !keep.Valid {
		s.nruSet = 0
	}
}

func (t *scanTLB) Insert(e Entry) Entry {
	if t.cfg.Uniform && e.Class != t.cfg.UniformClass {
		panic(fmt.Sprintf("tlb: inserting %v entry into uniform %v TLB", e.Class, t.cfg.UniformClass))
	}
	if e.Tag&e.Class.Mask() != 0 || e.Target&e.Class.Mask() != 0 {
		panic(fmt.Sprintf("tlb: unaligned %v mapping %#x -> %#x", e.Class, e.Tag, e.Target))
	}
	e.Valid = true
	e.nru = false
	e.mask = e.Class.Mask()
	s := t.setFor(e.Tag)

	for i := range s.entries {
		if s.entries[i].covers(e.Tag) {
			old := s.entries[i]
			if old.nru {
				s.nruSet--
			}
			s.entries[i] = e
			t.touch(s, &s.entries[i])
			return old
		}
	}
	for i := range s.entries {
		if !s.entries[i].Valid {
			s.entries[i] = e
			s.valid++
			t.touch(s, &s.entries[i])
			return Entry{}
		}
	}
	victim := -1
	for pass := 0; pass < 2 && victim < 0; pass++ {
		for i := range s.entries {
			if !s.entries[i].Wired && !s.entries[i].nru {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.age(s, nil)
		}
	}
	if victim < 0 {
		panic("tlb: set entirely wired; cannot insert")
	}
	old := s.entries[victim]
	if old.nru {
		s.nruSet--
	}
	s.entries[victim] = e
	t.touch(s, &s.entries[victim])
	return old
}

func (t *scanTLB) purgeAt(s *scanSet, i int) {
	if s.entries[i].nru {
		s.nruSet--
	}
	s.entries[i] = Entry{}
	s.valid--
}

func (t *scanTLB) Purge(addr uint64) bool {
	s := t.setFor(addr)
	for i := range s.entries {
		if s.entries[i].covers(addr) {
			t.purgeAt(s, i)
			return true
		}
	}
	return false
}

func (t *scanTLB) PurgeAll() {
	for si := range t.sets {
		s := &t.sets[si]
		for i := range s.entries {
			if s.entries[i].Valid && !s.entries[i].Wired {
				t.purgeAt(s, i)
			}
		}
	}
}

func (t *scanTLB) PurgeRange(base, size uint64) int {
	n := 0
	for si := range t.sets {
		s := &t.sets[si]
		for i := range s.entries {
			e := &s.entries[i]
			if !e.Valid || e.Wired {
				continue
			}
			lo, hi := e.Tag, e.Tag+e.Class.Bytes()
			if lo < base+size && base < hi {
				t.purgeAt(s, i)
				n++
			}
		}
	}
	return n
}

func (t *scanTLB) VisitValid(fn func(Entry)) {
	for si := range t.sets {
		for i := range t.sets[si].entries {
			if t.sets[si].entries[i].Valid {
				fn(t.sets[si].entries[i])
			}
		}
	}
}

func (t *scanTLB) ValidCount() int {
	n := 0
	for i := range t.sets {
		n += t.sets[i].valid
	}
	return n
}

func (t *scanTLB) Reach() uint64 {
	var r uint64
	for si := range t.sets {
		for i := range t.sets[si].entries {
			if t.sets[si].entries[i].Valid {
				r += t.sets[si].entries[i].Class.Bytes()
			}
		}
	}
	return r
}
