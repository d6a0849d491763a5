// Package tlb implements a generic set-associative translation lookaside
// buffer with not-recently-used (NRU) replacement and variable page sizes
// (superpages). Two instances appear in the simulated machine:
//
//   - the processor's unified I/D TLB: fully associative, single cycle,
//     superpage-capable, NRU-replaced, sizes 64-256 entries (paper §3.2);
//   - the memory-controller TLB (MTLB): set-associative (2-way by
//     default), single base page size, NRU-replaced (paper §2.2, §3.4).
//
// The TLB is address-space agnostic: it maps one 64-bit address space onto
// another. The CPU instance maps virtual to "physical" (possibly shadow)
// addresses; the MTLB instance maps shadow physical to real physical.
//
// The model is defined on an array of entry slots, set-major: a lookup
// answers with the lowest slot covering the address, an insert takes the
// lowest free slot of its set, and the NRU victim is the lowest non-wired
// slot of the set whose referenced bit is clear. For simulation speed
// the TLB keeps beside that array an open-addressing index from (page
// class, tag) to slot, a count of entries per page class, and bitmaps of
// free slots and victim candidates. Lookup, Probe, Insert and Purge then
// cost O(page classes present) index probes rather than O(entries) slot
// compares, a victim choice is a find-first-set, and NRU ageing keeps
// per-set counters, so it runs once per set-full of first touches.
//
// Overlapping entries — a superpage installed over smaller entries inside
// its range — are legal, though the simulated OS never produces them.
// While any exist, a lookup probes every present class and keeps the
// lowest slot; otherwise at most one entry covers an address and the
// first hit ends the probe.
//
// Callers that memoize lookups (the CPU's page memo) validate them with
// two numbers: the entry's install stamp, which changes whenever its slot
// is overwritten, evicted or purged, and the TLB's shape generation,
// which moves only on PurgeAll and on inserts that create an overlap.
// Between moves of the shape generation, the entry a lookup returns for
// an address changes only by that entry leaving its slot.
package tlb

import (
	"fmt"
	"math/bits"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/stats"
)

// Entry is one TLB mapping. Tag and Target are byte addresses aligned to
// the mapping's page-class size; a mapping of class c covers
// [Tag, Tag+c.Bytes()).
type Entry struct {
	Valid  bool
	Wired  bool // never replaced (the paper's kernel block TLB entry)
	Class  arch.PageSizeClass
	Tag    uint64 // source-space base address, class-aligned
	Target uint64 // destination-space base address, class-aligned

	// Protection bits, held only in the processor TLB (paper §2.1):
	// identical for every base page under a superpage.
	ReadOnly   bool
	Supervisor bool

	nru   bool   // NRU referenced bit
	slot  int32  // position in TLB.slots, set when the entry is installed
	stamp uint64 // install stamp; zero in an empty slot
	mask  uint64 // Class.Mask(), precomputed when the entry is installed
}

// Translate applies the mapping to an address that hits this entry.
// It works on any entry value, installed or not, so the mask is derived
// from the class rather than read from the install-time cache.
func (e *Entry) Translate(addr uint64) uint64 {
	return e.Target | (addr & e.Class.Mask())
}

// Stamp returns the entry's install stamp: a value unique to one
// installation of a mapping in a slot, and zero in an empty slot.
// Overwriting, evicting or purging the entry changes its slot's stamp,
// so a caller holding a pointer into the TLB can tell whether the slot
// still holds the mapping it recorded.
func (e *Entry) Stamp() uint64 { return e.stamp }

// covers reports whether addr falls in this entry's mapped range. It
// relies on the precomputed offset mask, so it must only be called on
// entries that went through Insert or Refill (every stored entry does);
// recomputing Class.Mask per probed entry dominated simulation profiles.
func (e *Entry) covers(addr uint64) bool {
	return e.Valid && addr&^e.mask == e.Tag
}

// Config sizes a TLB.
type Config struct {
	Entries int // total entries; must be a multiple of Ways
	Ways    int // associativity; Ways == Entries means fully associative
	// UniformClass forces a single page size. Required whenever the TLB
	// has more than one set, because set indexing needs a fixed page
	// shift. The MTLB uses Page4K (paper §2.2 reason 3).
	UniformClass arch.PageSizeClass
	Uniform      bool
}

// FullyAssociative builds the processor-TLB configuration.
func FullyAssociative(entries int) Config {
	return Config{Entries: entries, Ways: entries}
}

// SetAssociative builds an MTLB-style configuration: ways-way associative
// over a single 4 KB page size.
func SetAssociative(entries, ways int) Config {
	return Config{Entries: entries, Ways: ways, Uniform: true, UniformClass: arch.Page4K}
}

// set holds one associative set's NRU bookkeeping counters.
type set struct {
	valid  int // valid entries
	nruSet int // valid entries with the NRU bit set
}

// cell is one index cell: a valid entry's key and slot. Key zero marks
// an empty cell.
type cell struct {
	key  uint64
	slot int32
}

// indexKey packs a class-aligned tag and its page class into one
// nonzero word: tags are at least 4 KB aligned, leaving the low bits
// free for the class.
func indexKey(c arch.PageSizeClass, tag uint64) uint64 {
	return tag | uint64(c+1)
}

// TLB is a set-associative translation cache with NRU replacement.
type TLB struct {
	cfg   Config
	slots []Entry // set-major: set s holds slots [s*Ways, (s+1)*Ways)
	sets  []set
	Stats stats.HitMiss

	// setShift/setMask precompute set indexing for power-of-two set
	// counts; setMask is zero when the count is not a power of two and
	// indexing falls back to modulo.
	setShift uint
	setMask  uint64

	// index maps indexKey(class, tag) to slot for every valid entry:
	// linear probing over a power-of-two table at most a quarter full,
	// with backward-shift deletion, so no tombstones build up. Entries
	// with equal keys, possible only while entries overlap, each keep a
	// cell of their own.
	index      []cell
	indexShift uint // 64 - log2(len(index)), for Fibonacci hashing

	classCount [arch.NumPageClasses]int
	classes    uint // bit c set while classCount[c] > 0

	// Slot bitmaps: free marks the slots without a valid entry, and
	// victims the valid non-wired entries whose referenced bit is
	// clear, which are NRU's candidates.
	free, victims []uint64

	// overlaps counts the pairs of valid entries whose ranges intersect.
	overlaps int

	stamp uint64 // the last install stamp handed out
	shape uint64 // the shape generation

	// Probes counts the index cells searches examine; every Lookup,
	// Probe, Insert and Purge starts with one. It measures host work,
	// not the modelled TLB, so it stays out of Stats (see cpu.Work).
	Probes uint64
}

// New builds a TLB. It panics on malformed configurations (non-divisible
// ways, multi-set without a uniform page size) because those are
// programming errors, not runtime conditions.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", cfg.Entries, cfg.Ways))
	}
	numSets := cfg.Entries / cfg.Ways
	if numSets > 1 && !cfg.Uniform {
		panic("tlb: multi-set TLB requires a uniform page class for indexing")
	}
	cells := 4
	for cells < 4*cfg.Entries {
		cells <<= 1
	}
	words := (cfg.Entries + 63) / 64
	t := &TLB{
		cfg:        cfg,
		slots:      make([]Entry, cfg.Entries),
		sets:       make([]set, numSets),
		index:      make([]cell, cells),
		indexShift: uint(64 - bits.TrailingZeros(uint(cells))),
		free:       make([]uint64, words),
		victims:    make([]uint64, words),
	}
	for i := 0; i < cfg.Entries; i++ {
		setBit(t.free, i)
	}
	t.setShift = cfg.UniformClass.Shift()
	if numSets&(numSets-1) == 0 {
		t.setMask = uint64(numSets - 1)
	}
	return t
}

// Entries returns the total entry count.
func (t *TLB) Entries() int { return t.cfg.Entries }

// Ways returns the associativity.
func (t *TLB) Ways() int { return t.cfg.Ways }

// Sets returns the number of sets.
func (t *TLB) Sets() int { return len(t.sets) }

// setOf returns the set an address maps to. Fully associative TLBs
// always use set 0; multi-set TLBs index by page number.
func (t *TLB) setOf(addr uint64) int {
	if len(t.sets) == 1 {
		return 0
	}
	return int(t.setIndex(addr))
}

// setIndex computes the set number for addr with a precomputed shift
// and, for power-of-two set counts, a mask instead of a modulo
// (TestSetIndexEquivalence pins the two forms equal).
func (t *TLB) setIndex(addr uint64) uint64 {
	page := addr >> t.setShift
	if t.setMask != 0 {
		return page & t.setMask
	}
	return page % uint64(len(t.sets))
}

// ShapeGen returns the TLB's shape generation. It moves on PurgeAll and
// on every insert that leaves the new entry overlapping another, and on
// nothing else. Together with Entry.Stamp it validates a memoized
// lookup: while the memoized entry's stamp and the shape generation are
// both unchanged, Lookup of any address the entry covered still returns
// that entry — a new entry can only take over an address by
// overlapping the old one, and entries never move between slots.
func (t *TLB) ShapeGen() uint64 { return t.shape }

// FastHit replays the bookkeeping of a Lookup hit — the hit counter and
// NRU referenced-bit maintenance — on an entry the caller already knows
// Lookup would return, skipping the search. e must be a valid entry of
// t; the CPU's page memo guarantees this by checking its stamp and the
// shape generation.
func (t *TLB) FastHit(e *Entry) {
	t.Stats.Hit()
	t.touch(e)
}

// Lookup finds the entry covering addr. On a hit it marks the entry
// recently used and returns it; on a miss it returns nil. Stats are
// updated. Lookup does not check protection; callers decide how to treat
// ReadOnly/Supervisor because fault semantics differ between the CPU TLB
// and the MTLB.
func (t *TLB) Lookup(addr uint64) *Entry {
	i := t.find(addr)
	if i < 0 {
		t.Stats.Miss()
		return nil
	}
	t.Stats.Hit()
	e := &t.slots[i]
	t.touch(e)
	return e
}

// Probe is like Lookup but does not update stats or NRU state; used by
// tests and by the OS model to inspect TLB contents non-destructively.
func (t *TLB) Probe(addr uint64) *Entry {
	if i := t.find(addr); i >= 0 {
		return &t.slots[i]
	}
	return nil
}

// find returns the lowest slot whose entry covers addr, or -1.
func (t *TLB) find(addr uint64) int {
	if t.overlaps == 0 {
		// Largest class first: a larger page covers more of the
		// address space, so it is likelier to hold the address.
		for m := t.classes; m != 0; {
			c := arch.PageSizeClass(bits.Len(m) - 1)
			m &^= 1 << c
			if i := t.indexFirst(indexKey(c, addr&^c.Mask())); i >= 0 {
				return i
			}
		}
		return -1
	}
	best := -1
	for m := t.classes; m != 0; m &= m - 1 {
		c := arch.PageSizeClass(bits.TrailingZeros(m))
		if i, _ := t.indexScan(indexKey(c, addr&^c.Mask()), -1); i >= 0 && (best < 0 || i < best) {
			best = i
		}
	}
	return best
}

// touch sets the NRU bit, ageing the set (clearing every other bit) when
// all valid entries would otherwise be marked. Touching a referenced
// entry changes nothing; that check is kept apart so it inlines.
func (t *TLB) touch(hit *Entry) {
	if !hit.nru {
		t.reference(hit)
	}
}

// reference sets an unreferenced entry's NRU bit; see touch.
func (t *TLB) reference(hit *Entry) {
	hit.nru = true
	clearBit(t.victims, int(hit.slot))
	si := t.setOf(hit.Tag)
	s := &t.sets[si]
	s.nruSet++
	if s.nruSet == s.valid {
		t.age(si, hit)
	}
}

// age clears the NRU bits of every valid entry of set si except keep.
func (t *TLB) age(si int, keep *Entry) {
	lo := si * t.cfg.Ways
	for i := lo; i < lo+t.cfg.Ways; i++ {
		e := &t.slots[i]
		if e.Valid && e != keep {
			e.nru = false
			if !e.Wired {
				setBit(t.victims, i)
			}
		}
	}
	t.sets[si].nruSet = 1
	if keep == nil || !keep.Valid {
		t.sets[si].nruSet = 0
	}
}

// Insert installs a mapping, evicting an NRU victim if the set is full.
// It returns the evicted entry (Valid=false in the return if nothing
// valid was displaced). A pre-existing entry covering the new tag is
// overwritten in place, which models TLB designs that "automatically
// discard pre-existing mappings for the same virtual range" (paper §2.3).
func (t *TLB) Insert(e Entry) Entry {
	if t.cfg.Uniform && e.Class != t.cfg.UniformClass {
		panic(fmt.Sprintf("tlb: inserting %v entry into uniform %v TLB", e.Class, t.cfg.UniformClass))
	}
	if e.Tag&e.Class.Mask() != 0 || e.Target&e.Class.Mask() != 0 {
		panic(fmt.Sprintf("tlb: unaligned %v mapping %#x -> %#x", e.Class, e.Tag, e.Target))
	}
	e.Valid = true
	e.nru = false // install's touch sets it

	// Replace an existing mapping for the same range. Other entries
	// still cover the tag afterwards only if some overlapped it.
	if i := t.find(e.Tag); i >= 0 {
		old := t.slots[i]
		covered := t.overlaps > 0
		t.remove(i)
		t.install(i, e, covered)
		return old
	}
	si := t.setOf(e.Tag)
	lo, hi := si*t.cfg.Ways, (si+1)*t.cfg.Ways
	if i := firstBit(t.free, lo, hi); i >= 0 {
		t.install(i, e, false)
		return Entry{}
	}
	// NRU victim: first non-wired entry with a clear referenced bit;
	// if none, age the set and retry.
	i := firstBit(t.victims, lo, hi)
	if i < 0 {
		t.age(si, nil)
		i = firstBit(t.victims, lo, hi)
	}
	if i < 0 {
		panic("tlb: set entirely wired; cannot insert")
	}
	old := t.slots[i]
	t.remove(i)
	t.install(i, e, false)
	return old
}

// install places e, already marked valid, in free slot i under a fresh
// stamp, indexes and counts it, and touches it. covered says whether
// entries of e's class or larger may still cover e's tag; otherwise
// only smaller entries inside its range can overlap it.
func (t *TLB) install(i int, e Entry, covered bool) {
	t.stamp++
	e.stamp, e.slot, e.mask = t.stamp, int32(i), e.Class.Mask()
	t.slots[i] = e
	p := &t.slots[i]
	t.indexAdd(indexKey(e.Class, e.Tag), i)
	t.classCount[e.Class]++
	t.classes |= 1 << e.Class
	t.sets[t.setOf(e.Tag)].valid++
	clearBit(t.free, i)
	if !e.Wired {
		setBit(t.victims, i)
	}
	if covered || t.classes&(1<<e.Class-1) != 0 {
		if n := t.overlapsOf(i); n > 0 {
			t.overlaps += n
			t.shape++
		}
	}
	t.touch(p)
}

// remove empties slot i, undoing its entry's index, count and bitmap
// bookkeeping; the slot's stamp becomes zero.
func (t *TLB) remove(i int) {
	e := &t.slots[i]
	if t.overlaps > 0 {
		t.overlaps -= t.overlapsOf(i)
	}
	t.indexDelete(indexKey(e.Class, e.Tag), i)
	t.classCount[e.Class]--
	if t.classCount[e.Class] == 0 {
		t.classes &^= 1 << e.Class
	}
	s := &t.sets[t.setOf(e.Tag)]
	s.valid--
	if e.nru {
		s.nruSet--
	}
	setBit(t.free, i)
	clearBit(t.victims, i)
	*e = Entry{}
}

// overlapsOf counts the valid entries other than slot i's whose ranges
// intersect it. Aligned power-of-four ranges intersect only by nesting:
// entries of its class or larger overlap it by covering its tag and are
// found through the index; smaller ones lie inside its range and are
// found by a scan, which only superpages with smaller classes present
// need.
func (t *TLB) overlapsOf(i int) int {
	e := &t.slots[i]
	n := 0
	for m := t.classes >> e.Class << e.Class; m != 0; m &= m - 1 {
		c := arch.PageSizeClass(bits.TrailingZeros(m))
		_, k := t.indexScan(indexKey(c, e.Tag&^c.Mask()), i)
		n += k
	}
	if t.classes&(1<<e.Class-1) != 0 {
		for j := range t.slots {
			o := &t.slots[j]
			if o.Valid && o.Class < e.Class && o.Tag&^e.Class.Mask() == e.Tag {
				n++
			}
		}
	}
	return n
}

// Purge invalidates the entry covering addr and reports whether one was
// found (the paper's per-mapping TLB shootdown).
func (t *TLB) Purge(addr uint64) bool {
	i := t.find(addr)
	if i < 0 {
		return false
	}
	t.remove(i)
	return true
}

// PurgeAll invalidates every non-wired entry. The shape generation
// advances even when the TLB held nothing purgeable, so a context switch
// always kills externally memoized translations, wired ones included.
func (t *TLB) PurgeAll() {
	t.shape++
	for i := range t.slots {
		if e := &t.slots[i]; e.Valid && !e.Wired {
			t.remove(i)
		}
	}
}

// PurgeRange invalidates all non-wired entries overlapping [base,
// base+size) and returns how many were dropped. Used when the OS remaps a
// virtual region onto shadow superpages.
func (t *TLB) PurgeRange(base, size uint64) int {
	n := 0
	for i := range t.slots {
		e := &t.slots[i]
		if !e.Valid || e.Wired {
			continue
		}
		lo, hi := e.Tag, e.Tag+e.Class.Bytes()
		if lo < base+size && base < hi {
			t.remove(i)
			n++
		}
	}
	return n
}

// VisitValid calls fn with a copy of every valid entry, in slot order.
// It does not touch stats, NRU state, stamps or the shape generation,
// so external checkers (the invariant harness) can audit TLB contents
// without perturbing the simulation.
func (t *TLB) VisitValid(fn func(Entry)) {
	for i := range t.slots {
		if t.slots[i].Valid {
			fn(t.slots[i])
		}
	}
}

// ValidCount returns the number of valid entries.
func (t *TLB) ValidCount() int {
	n := 0
	for _, k := range t.classCount {
		n += k
	}
	return n
}

// Reach returns the total bytes currently mapped by valid entries — the
// paper's headline metric.
func (t *TLB) Reach() uint64 {
	var r uint64
	for c, k := range t.classCount {
		r += uint64(k) * arch.PageSizeClass(c).Bytes()
	}
	return r
}

// home returns key k's first index cell (Fibonacci hashing).
func (t *TLB) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.indexShift)
}

// indexFirst returns the slot of the first cell with key k the probe
// meets, or -1. While no entries overlap, keys are unique.
func (t *TLB) indexFirst(k uint64) int {
	mask := len(t.index) - 1
	for h := t.home(k); ; h = (h + 1) & mask {
		t.Probes++
		c := &t.index[h]
		if c.key == k {
			return int(c.slot)
		}
		if c.key == 0 {
			return -1
		}
	}
}

// indexScan returns the lowest slot among the cells with key k other
// than slot except (-1 when there are none), and how many there are.
func (t *TLB) indexScan(k uint64, except int) (lowest, count int) {
	mask := len(t.index) - 1
	lowest = -1
	for h := t.home(k); t.index[h].key != 0; h = (h + 1) & mask {
		t.Probes++
		c := &t.index[h]
		if c.key != k || int(c.slot) == except {
			continue
		}
		count++
		if lowest < 0 || int(c.slot) < lowest {
			lowest = int(c.slot)
		}
	}
	return lowest, count
}

// indexAdd records slot under key k.
func (t *TLB) indexAdd(k uint64, slot int) {
	mask := len(t.index) - 1
	h := t.home(k)
	for t.index[h].key != 0 {
		h = (h + 1) & mask
	}
	t.index[h] = cell{key: k, slot: int32(slot)}
}

// indexDelete removes the cell recording slot under key k, then closes
// the gap by pulling back later cells of the probe cluster that may
// legally sit in it (backward-shift deletion).
func (t *TLB) indexDelete(k uint64, slot int) {
	mask := len(t.index) - 1
	h := t.home(k)
	for t.index[h].key != k || int(t.index[h].slot) != slot {
		if t.index[h].key == 0 {
			panic(fmt.Sprintf("tlb: index has no cell for slot %d", slot))
		}
		h = (h + 1) & mask
	}
	for j := (h + 1) & mask; t.index[j].key != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole at h when h lies cyclically
		// between its home and j.
		if (j-t.home(t.index[j].key))&mask >= (j-h)&mask {
			t.index[h] = t.index[j]
			h = j
		}
	}
	t.index[h] = cell{}
}

// firstBit returns the lowest bit set in bm within [lo, hi), or -1.
func firstBit(bm []uint64, lo, hi int) int {
	for w := lo >> 6; w<<6 < hi; w++ {
		x := bm[w]
		if w == lo>>6 {
			x &= ^uint64(0) << (lo & 63)
		}
		if end := hi - w<<6; end < 64 {
			x &= 1<<end - 1
		}
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

func setBit(bm []uint64, i int)   { bm[i>>6] |= 1 << (i & 63) }
func clearBit(bm []uint64, i int) { bm[i>>6] &^= 1 << (i & 63) }
func hasBit(bm []uint64, i int) bool {
	return bm[i>>6]&(1<<(i&63)) != 0
}
