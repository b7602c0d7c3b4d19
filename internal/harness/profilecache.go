package harness

import (
	"sync"

	"anonlead"
	"anonlead/internal/spectral"
)

// The process-wide cell cache. A sweep cell's topology is identified by
// (family, n, root seed), and anonlead.NewNetwork is a pure function of
// it, so repeated cells — the same workload swept under several protocols,
// the knowledge-ablation factor grid, or a scaling cell run twice — share
// one Network. The Network's own per-regime cache is the profile cache:
// one profile per resolved mode, computed under the network's lock, so
// concurrent sweeps asking for the same cell block on one computation
// rather than duplicating it. This file only shares the networks and
// counts the lookups.
var cellCache = struct {
	sync.Mutex
	nets   map[cellKey]*cellEntry
	hits   uint64
	misses uint64
}{nets: make(map[cellKey]*cellEntry)}

type cellKey struct {
	family string
	n      int
	seed   uint64
}

type cellEntry struct {
	once sync.Once
	anw  *anonlead.Network
	err  error
	// asked records which resolved regimes (exact, estimate — never auto)
	// have been looked up, for the hit/miss counters; cellCache's lock
	// guards it.
	asked [spectral.ModeEstimate + 1]bool
}

// cachedNetwork builds (or reuses) the network of cell (w, seed) and counts
// the lookup of its profile under mode. The mode is resolved before
// counting, so auto shares the entry of whichever regime it lands on.
func cachedNetwork(w Workload, seed uint64, mode spectral.Mode) (*anonlead.Network, error) {
	k := cellKey{w.Family, w.N, seed}
	resolved := mode.Resolve(w.N)
	cellCache.Lock()
	e, ok := cellCache.nets[k]
	if !ok {
		e = &cellEntry{}
		cellCache.nets[k] = e
	}
	if e.asked[resolved] {
		cellCache.hits++
	} else {
		cellCache.misses++
		e.asked[resolved] = true
	}
	cellCache.Unlock()
	e.once.Do(func() { e.anw, e.err = anonlead.NewNetwork(w.Family, w.N, seed) })
	return e.anw, e.err
}

// ProfileCacheStats returns the cumulative profile-cache hit/miss counters
// (a hit is a lookup of a cell and regime that was asked for before, even
// one still being computed). The scaling experiment reports them; tests
// assert on deltas.
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
