package cpu

import "fmt"

// Work counts the host work the simulator did for one processor's
// references (DESIGN.md §10, "Work counters"). Only paths that are
// already slow increment it; the memo hits are the references left
// over. The counts depend on the engines and the cell, never on the
// host, so they stay out of sim.Result and the obs registry: a change
// to an engine may move them while every simulated number stays put.
type Work struct {
	Slow    uint64 // references that entered accessSlow
	Fills   uint64 // page-memo slots filled, by either engine
	Escapes uint64 // batched-replay references sent down the per-reference path
}

// HostWork reports the host work done for cpus' references as one line:
// the references that took the slow path and their share, page-memo
// fills, replay escapes, and the TLB index cells probed in all and per
// reference.
func HostWork(cpus ...*CPU) string {
	var w Work
	var refs, probes uint64
	for _, c := range cpus {
		w.Slow += c.Work.Slow
		w.Fills += c.Work.Fills
		w.Escapes += c.Work.Escapes
		refs += c.Loads + c.Stores
		probes += c.TLB.Probes
	}
	n := float64(max(refs, 1))
	return fmt.Sprintf("host work: %d of %d refs slow (%.1f%%), %d memo fills, %d escapes, %d TLB probes (%.2f/ref)",
		w.Slow, refs, 100*float64(w.Slow)/n, w.Fills, w.Escapes, probes, float64(probes)/n)
}
