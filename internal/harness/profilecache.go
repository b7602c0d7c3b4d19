package harness

import (
	"sync"

	"anonlead"
)

// The process-wide cell cache. A sweep cell's topology is identified by
// (family, n, root seed), and anonlead.NewNetwork is a pure function of
// it, so repeated cells — the same workload swept under several protocols,
// the knowledge-ablation factor grid, or a scaling cell run twice — share
// one Network. The Network's own cache is the profile cache: one profile
// per network, computed under the network's lock, so concurrent sweeps
// asking for the same cell block on one computation rather than
// duplicating it. This file only shares the networks and counts the
// lookups.
var cellCache = struct {
	sync.Mutex
	nets   map[cellKey]*cellEntry
	hits   uint64
	misses uint64
}{nets: make(map[cellKey]*cellEntry)}

type cellKey struct {
	Workload
	seed uint64
}

type cellEntry struct {
	once sync.Once
	anw  *anonlead.Network
	err  error
}

// cachedNetwork builds (or reuses) the network of cell (w, seed) and counts
// the lookup of its profile: a hit when the cell was looked up before.
func cachedNetwork(w Workload, seed uint64) (*anonlead.Network, error) {
	k := cellKey{w, seed}
	cellCache.Lock()
	e, ok := cellCache.nets[k]
	if ok {
		cellCache.hits++
	} else {
		cellCache.misses++
		e = &cellEntry{}
		cellCache.nets[k] = e
	}
	cellCache.Unlock()
	e.once.Do(func() { e.anw, e.err = anonlead.NewNetwork(w.Family, w.N, seed) })
	return e.anw, e.err
}

// ProfileCacheStats returns the cumulative profile-cache hit/miss counters
// (a hit is a lookup of a cell that was asked for before, even one still
// being computed). The scaling experiment reports them; tests assert on
// deltas.
func ProfileCacheStats() (hits, misses uint64) {
	cellCache.Lock()
	defer cellCache.Unlock()
	return cellCache.hits, cellCache.misses
}

// ResetProfileCache drops every cached network (and with it its profiles)
// and zeroes the counters. Tests use it to measure cold-vs-warm behavior;
// sweeps never need to.
func ResetProfileCache() {
	cellCache.Lock()
	defer cellCache.Unlock()
	cellCache.nets = make(map[cellKey]*cellEntry)
	cellCache.hits, cellCache.misses = 0, 0
}
