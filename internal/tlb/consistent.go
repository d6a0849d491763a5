package tlb

import (
	"fmt"

	"shadowtlb/internal/arch"
)

// CheckConsistent audits the TLB's bookkeeping against its entry array:
// every valid entry knows its slot and its class's offset mask, carries
// a distinct nonzero stamp no later than the last one handed out, sits
// in its tag's set, and is reachable through the index under its own
// key, while every index cell names a valid slot holding that key;
// empty slots are zero; the per-class and per-set counts, the class
// mask and the free and victim bitmaps agree with the entries' Valid,
// Wired and referenced bits; and the overlap count equals the number of
// intersecting pairs. It returns nil when consistent; the invariant
// harness calls it between simulation events.
func (t *TLB) CheckConsistent() error {
	var classCount [arch.NumPageClasses]int
	sets := make([]set, len(t.sets))
	stamps := make(map[uint64]int)
	for i := range t.slots {
		e := &t.slots[i]
		if free := hasBit(t.free, i); free == e.Valid {
			return fmt.Errorf("tlb: slot %d valid=%v but free bit %v", i, e.Valid, free)
		}
		if !e.Valid {
			if *e != (Entry{}) {
				return fmt.Errorf("tlb: empty slot %d holds %+v", i, *e)
			}
			if hasBit(t.victims, i) {
				return fmt.Errorf("tlb: empty slot %d marked victim", i)
			}
			continue
		}
		if int(e.slot) != i {
			return fmt.Errorf("tlb: slot %d holds %v entry %#x recorded at slot %d", i, e.Class, e.Tag, e.slot)
		}
		if e.mask != e.Class.Mask() {
			return fmt.Errorf("tlb: slot %d (%v %#x) caches mask %#x", i, e.Class, e.Tag, e.mask)
		}
		if si := t.setOf(e.Tag); si != i/t.cfg.Ways {
			return fmt.Errorf("tlb: slot %d holds %#x, which belongs to set %d", i, e.Tag, si)
		}
		if e.stamp == 0 || e.stamp > t.stamp {
			return fmt.Errorf("tlb: slot %d stamp %d outside (0, %d]", i, e.stamp, t.stamp)
		}
		if j, dup := stamps[e.stamp]; dup {
			return fmt.Errorf("tlb: slots %d and %d share stamp %d", j, i, e.stamp)
		}
		stamps[e.stamp] = i
		if victim := hasBit(t.victims, i); victim != (!e.Wired && !e.nru) {
			return fmt.Errorf("tlb: slot %d (wired %v, referenced %v) has victim bit %v", i, e.Wired, e.nru, victim)
		}
		if !t.indexHas(indexKey(e.Class, e.Tag), i) {
			return fmt.Errorf("tlb: slot %d (%v %#x) unreachable through the index", i, e.Class, e.Tag)
		}
		classCount[e.Class]++
		s := &sets[i/t.cfg.Ways]
		s.valid++
		if e.nru {
			s.nruSet++
		}
	}
	for i := len(t.slots); i < len(t.free)*64; i++ {
		if hasBit(t.free, i) || hasBit(t.victims, i) {
			return fmt.Errorf("tlb: bitmap bit %d set beyond the %d slots", i, len(t.slots))
		}
	}
	cells := 0
	for h, c := range t.index {
		if c.key == 0 {
			continue
		}
		cells++
		if c.slot < 0 || int(c.slot) >= len(t.slots) {
			return fmt.Errorf("tlb: index cell %d names slot %d of %d", h, c.slot, len(t.slots))
		}
		if e := &t.slots[c.slot]; !e.Valid || indexKey(e.Class, e.Tag) != c.key {
			return fmt.Errorf("tlb: index cell %d key %#x names slot %d, which holds %+v", h, c.key, c.slot, *e)
		}
	}
	if cells != len(stamps) {
		return fmt.Errorf("tlb: index holds %d cells for %d valid entries", cells, len(stamps))
	}
	var classes uint
	for c, k := range classCount {
		if k != t.classCount[c] {
			return fmt.Errorf("tlb: %v count %d, slots hold %d", arch.PageSizeClass(c), t.classCount[c], k)
		}
		if k > 0 {
			classes |= 1 << c
		}
	}
	if classes != t.classes {
		return fmt.Errorf("tlb: class mask %#b, slots give %#b", t.classes, classes)
	}
	for si := range sets {
		if sets[si] != t.sets[si] {
			return fmt.Errorf("tlb: set %d counters %+v, slots give %+v", si, t.sets[si], sets[si])
		}
	}
	if pairs := t.overlappingPairs(); pairs != t.overlaps {
		return fmt.Errorf("tlb: overlap count %d, slots hold %d overlapping pairs", t.overlaps, pairs)
	}
	return nil
}

// indexHas reports whether the probe sequence for key k reaches a cell
// recording slot before an empty cell.
func (t *TLB) indexHas(k uint64, slot int) bool {
	mask := len(t.index) - 1
	for h := t.home(k); t.index[h].key != 0; h = (h + 1) & mask {
		if t.index[h].key == k && int(t.index[h].slot) == slot {
			return true
		}
	}
	return false
}

// overlappingPairs counts the pairs of valid entries whose ranges
// intersect, pair by pair.
func (t *TLB) overlappingPairs() int {
	n := 0
	for i := range t.slots {
		a := &t.slots[i]
		if !a.Valid {
			continue
		}
		for j := i + 1; j < len(t.slots); j++ {
			b := &t.slots[j]
			if b.Valid && nested(a, b) {
				n++
			}
		}
	}
	return n
}

// nested reports whether the ranges of a and b intersect, which for
// class-aligned power-of-four ranges means one contains the other's tag.
func nested(a, b *Entry) bool {
	return a.Tag&^b.Class.Mask() == b.Tag || b.Tag&^a.Class.Mask() == a.Tag
}
