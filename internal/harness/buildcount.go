package harness

import "sync/atomic"

// builds counts prepareCell's builds since the last ResetProfileCache.
var builds atomic.Uint64

// ProfileCacheStats returns 0 hits and, as misses, the networks
// prepareCell built since the last ResetProfileCache.
//
// Deprecated: there is no profile cache; bench/ is the last caller.
func ProfileCacheStats() (hits, misses uint64) { return 0, builds.Load() }

// ResetProfileCache zeroes the count ProfileCacheStats reports.
//
// Deprecated: there is no profile cache; bench/ is the last caller.
func ResetProfileCache() { builds.Store(0) }
