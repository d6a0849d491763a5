package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"shadowtlb/internal/obs"
	"shadowtlb/internal/resultstore"
	"shadowtlb/internal/sim"
)

// ResultCache is the daemon's process-lifetime simulation cache: an LRU
// over canonical cell keys with single-flight execution, so repeated
// configurations are served without re-simulating and concurrent
// requests for one configuration — even from different jobs — share a
// single simulation. It implements runner.ExternalCache.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // MRU at the front; values are *cacheEntry
	items   map[string]*list.Element // key → list element
	flights map[string]*cacheFlight  // key → in-flight simulation
	store   *resultstore.Store       // persistent second tier; nil = memory only

	hits      uint64 // served without simulating (stored, disk or coalesced)
	misses    uint64 // led a simulation
	coalesced uint64 // hits served by waiting on another caller's flight
	disk      uint64 // hits served by the persistent store
}

// cacheEntry is one stored result.
type cacheEntry struct {
	key string
	res sim.Result
}

// cacheFlight is one in-flight simulation that waiters coalesce onto.
type cacheFlight struct {
	done chan struct{}
	res  sim.Result
	ok   bool // false when the leader failed (panicked); waiters retry
}

// NewResultCache returns an empty cache holding at most capacity
// results; capacity <= 0 selects a default of 4096.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &ResultCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*cacheFlight),
	}
}

// Do returns the cached result for key, waits on an in-flight
// simulation of the same key, or runs simulate as the flight leader and
// stores its result. The bool reports whether the result was served
// without running simulate here. Waiting honors ctx; the simulation
// itself, once started, always completes (on behalf of every waiter).
//
// When ctx carries an active span (the daemon's run span), the outcome
// is annotated onto it: a cache.hit, cache.disk or cache.miss event,
// or a retroactive cache.wait span covering a coalesced wait — so a
// job trace shows exactly which cells were free, which were read back
// from the persistent store, and which paid.
func (c *ResultCache) Do(ctx context.Context, key string, simulate func() sim.Result) (sim.Result, bool, error) {
	sp := obs.SpanFromContext(ctx)
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			sp.Event("cache.hit")
			return res, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			waitStart := time.Now()
			select {
			case <-f.done:
			case <-ctx.Done():
				return sim.Result{}, false, ctx.Err()
			}
			if f.ok {
				c.mu.Lock()
				c.hits++
				c.coalesced++
				c.mu.Unlock()
				if sp != nil {
					sp.Tracer().RecordSpan("cache.wait", sp.Context(),
						waitStart, time.Since(waitStart))
				}
				return f.res, true, nil
			}
			continue // the leader failed; retry, possibly as the new leader
		}
		f := &cacheFlight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		// Memory missed and no flight is up: consult the persistent
		// store before paying for a simulation. The flight entry above
		// makes this lookup single-flight too — concurrent requesters
		// wait on done rather than each hitting the disk.
		if c.store != nil {
			if res, ok := c.store.Get(key); ok {
				f.res, f.ok = res, true
				c.mu.Lock()
				delete(c.flights, key)
				c.insert(key, res)
				c.hits++
				c.disk++
				c.mu.Unlock()
				close(f.done)
				sp.Event("cache.disk")
				return res, true, nil
			}
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		sp.Event("cache.miss")
		return c.lead(key, f, simulate)
	}
}

// lead runs the simulation as the flight leader and publishes the
// result. The deferred cleanup runs even when simulate panics, so
// waiters never hang: they observe the failed flight and retry, and the
// panic propagates to this caller alone.
func (c *ResultCache) lead(key string, f *cacheFlight, simulate func() sim.Result) (res sim.Result, cached bool, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.ok {
			c.insert(key, f.res)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.res = simulate()
	f.ok = true
	if c.store != nil {
		// Best-effort persistence: a failed write only costs a future
		// re-simulation.
		_ = c.store.Put(key, f.res)
	}
	return f.res, false, nil
}

// SetStore attaches a persistent second tier: memory misses consult it
// before simulating, and every simulated result is written through to
// it. Call before serving traffic.
func (c *ResultCache) SetStore(st *resultstore.Store) {
	c.mu.Lock()
	c.store = st
	c.mu.Unlock()
}

// Store returns the attached persistent tier, nil when memory-only.
func (c *ResultCache) Store() *resultstore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// insert stores a result at the MRU position, evicting from the LRU end
// past capacity. Callers hold c.mu.
func (c *ResultCache) insert(key string, res sim.Result) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// EvictOldest drops the least-recently-used stored result, reporting
// whether anything was evicted. The fault-injection harness uses it to
// force refills under load; in-flight simulations are unaffected.
func (c *ResultCache) EvictOldest() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := c.ll.Back()
	if last == nil {
		return false
	}
	c.ll.Remove(last)
	delete(c.items, last.Value.(*cacheEntry).key)
	return true
}

// Len returns the number of stored results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the hit and miss counts so far. A hit is any Do served
// without simulating here (a stored result or a coalesced wait); a miss
// led a simulation.
func (c *ResultCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Counters splits the lookup outcomes four ways for labeled
// exposition: stored (in-memory) hits, waits coalesced onto another
// caller's in-flight simulation, hits served from the persistent disk
// store, and misses that led a simulation.
// stored + coalesced + disk equals Stats' hits.
func (c *ResultCache) Counters() (stored, coalesced, disk, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits - c.coalesced - c.disk, c.coalesced, c.disk, c.misses
}
