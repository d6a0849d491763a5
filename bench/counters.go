package main

import (
	"sync"
	"sync/atomic"

	"shadowtlb/internal/cpu"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/vm"
)

// counters sums the modelled machine's public counters over every
// simulation that finishes while it is the active tally. It is how the
// benchmark counts simulated references for every engine — including
// the runner pool's, whose systems it never sees directly — and where
// the modelled per-layer counters come from.
type counters struct {
	mu sync.Mutex

	refs                         uint64 // loads + stores
	user, tlbMiss, memory, kern  uint64 // cycle breakdown, summed over CPUs
	idle, busStall               uint64 // multicore: barrier idling, bus contention
	ipis                         uint64
	tlbHits, tlbMisses           uint64 // processor TLB lookups
	vmMisses, pageFaults         uint64
	cacheHits, cacheMisses       uint64
	fills, writeBacks, upgrades  uint64 // MMC operations
	mtlbHits, mtlbMiss, mtlbFill uint64
}

// active is the tally simulations report into; nil drops their counts
// (reference runs and set-up).
var active atomic.Pointer[counters]

var installOnce sync.Once

// installTally chains the benchmark's tally onto the simulator's
// system-assembly hooks. Each system binds to the tally active when it
// is assembled and reports at the end of its run.
func installTally() {
	installOnce.Do(func() {
		prev := sim.OnNewSystem
		sim.OnNewSystem = func(s *sim.System) {
			if prev != nil {
				prev(s)
			}
			c := active.Load()
			if c == nil {
				return
			}
			end := s.OnRunEnd
			s.OnRunEnd = func() {
				if end != nil {
					end()
				}
				c.addSystem(s)
			}
		}
		prevSMP := sim.OnNewSMPSystem
		sim.OnNewSMPSystem = func(s *sim.SMPSystem) {
			if prevSMP != nil {
				prevSMP(s)
			}
			c := active.Load()
			if c == nil {
				return
			}
			end := s.OnRunEnd
			s.OnRunEnd = func() {
				if end != nil {
					end()
				}
				c.addSMP(s)
			}
		}
	})
}

// tally makes a fresh tally active and returns it.
func tally() *counters {
	c := &counters{}
	active.Store(c)
	return c
}

// addCPU adds one processor's counters.
func (c *counters) addCPU(p *cpu.CPU) {
	c.refs += p.Loads + p.Stores
	c.user += uint64(p.Breakdown.User)
	c.tlbMiss += uint64(p.Breakdown.TLBMiss)
	c.memory += uint64(p.Breakdown.Memory)
	c.kern += uint64(p.Breakdown.Kernel)
	c.tlbHits += p.TLB.Stats.Hits
	c.tlbMisses += p.TLB.Stats.Misses
}

// addShared adds the counters of one address space and of the hardware
// every processor shares.
func (c *counters) addShared(vms []*vm.VM) {
	v := vms[0]
	for _, x := range vms {
		c.vmMisses += x.TLBMisses
		c.pageFaults += x.PageFaults
	}
	c.cacheHits += v.Cache.Stats.Hits
	c.cacheMisses += v.Cache.Stats.Misses
	c.fills += v.MMC.Fills
	c.writeBacks += v.MMC.WriteBacks
	c.upgrades += v.MMC.Upgrades
	if tr := v.MMC.Translator(); tr != nil {
		t := tr.Counters()
		c.mtlbHits += t.Hits
		c.mtlbMiss += t.Misses
		c.mtlbFill += t.Fills
	}
}

func (c *counters) addSystem(s *sim.System) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addCPU(s.CPU)
	c.addShared([]*vm.VM{s.VM})
}

func (c *counters) addSMP(s *sim.SMPSystem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range s.CPUs {
		c.addCPU(p)
		c.idle += uint64(s.Idle[i])
		c.busStall += uint64(s.BusStall[i])
		c.ipis += s.IPIsRecv[i]
	}
	c.addShared(s.VMs)
}

// refCount returns the references counted so far.
func (c *counters) refCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refs
}

// modelled returns the modelled per-layer metrics.
func (c *counters) modelled() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := float64(c.user + c.tlbMiss + c.memory + c.kern)
	kref := float64(c.refs) / 1000
	return map[string]float64{
		"sim.user_frac":           ratio(float64(c.user), total),
		"sim.tlbmiss_frac":        ratio(float64(c.tlbMiss), total),
		"sim.memory_frac":         ratio(float64(c.memory), total),
		"sim.kernel_frac":         ratio(float64(c.kern), total),
		"tlb.hit_rate":            ratio(float64(c.tlbHits), float64(c.tlbHits+c.tlbMisses)),
		"vm.tlb_misses_per_kref":  ratio(float64(c.vmMisses), kref),
		"vm.page_faults":          float64(c.pageFaults),
		"cache.hit_rate":          ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)),
		"mmc.fills_per_kref":      ratio(float64(c.fills), kref),
		"mmc.writebacks_per_kref": ratio(float64(c.writeBacks), kref),
		"mmc.upgrades_per_kref":   ratio(float64(c.upgrades), kref),
		"mtlb.hit_rate":           ratio(float64(c.mtlbHits), float64(c.mtlbHits+c.mtlbMiss)),
		"mtlb.fills_per_kref":     ratio(float64(c.mtlbFill), kref),
		"smp.ipis":                float64(c.ipis),
		"smp.bus_stall_frac":      ratio(float64(c.busStall), total),
		"smp.barrier_frac":        ratio(float64(c.idle), total+float64(c.idle)),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
