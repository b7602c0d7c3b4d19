// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator and protocols.
//
// Reproducibility is a core requirement of the experiment harness: every
// protocol trial must be replayable from a single root seed, and the random
// stream observed by one node must not depend on the scheduling order of
// other nodes. To that end the package exposes a splittable generator: a
// parent stream can derive independent child streams keyed by stable labels
// (node index, phase number, channel id), so a node observes the same
// randomness whichever backend steps it, and in whatever order.
//
// The core generator is splitmix64 (Steele, Lea, Flood; JSSC 2014) chained
// into an xoshiro256** state. Both are well-studied, pass BigCrush, and are
// trivially portable. This package is not cryptographically secure and must
// not be used for key material.
//
// See docs/ARCHITECTURE.md for where this sits in the paper-to-code map.
package rng

import "math/bits"

// golden is the splitmix64 increment (the 64-bit golden ratio).
const golden = 0x9e3779b97f4a7c15

// splitmix64 advances a splitmix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += golden
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 hashes x through one splitmix64 round, for label mixing.
func mix64(x uint64) uint64 {
	s := x
	return splitmix64(&s)
}

// RNG is a deterministic pseudo-random stream. The zero value is NOT valid;
// construct with New or Split. RNG is not safe for concurrent use; derive one
// stream per goroutine via Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Distinct seeds yield
// (with overwhelming probability) uncorrelated streams.
func New(seed uint64) *RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return &r
}

// Reseed reinitializes r in place from seed, producing the exact stream
// New(seed) would. It exists so flat []RNG arenas (one generator per
// simulated node, allocated in a single slice) can be seeded without a
// per-element heap allocation: rs[v].Reseed(parent.DeriveSeed(v)) is
// byte-identical to rs[v] = *parent.Split(v).
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
}

// Split derives an independent child stream keyed by label. Splitting is a
// pure function of the parent's seed material and the label: it does not
// advance the parent stream, so the set of children is stable no matter how
// many values the parent has produced since construction... To keep that
// guarantee simple we key off the parent's current state; callers should
// perform all Splits before drawing from the parent, which is the pattern
// used by the simulator (split per node, then per phase).
func (r *RNG) Split(label uint64) *RNG {
	return New(r.DeriveSeed(label))
}

// DeriveSeed returns the seed Split(label) would construct its child from,
// without building the child and without advancing the parent. It lets
// callers hand deterministic per-label seeds to APIs that take a raw uint64
// seed (e.g. a simulator config) while keeping the same stream-independence
// guarantees as Split — the experiment orchestrator derives per-trial seeds
// this way so that sharded parallel execution draws exactly the trials a
// sequential loop would.
func (r *RNG) DeriveSeed(label uint64) uint64 {
	seed := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ mix64(label)
	return seed ^ mix64(label^golden)
}

// SplitString derives a child stream keyed by a string label.
func (r *RNG) SplitString(label string) *RNG {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return r.Split(h)
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0, which
// always indicates a programming error at the call site (e.g. sampling a
// neighbor from a node with no ports).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n) using Lemire's
// multiply-shift rejection method (unbiased).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped: p<=0 never fires, p>=1 always fires.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Coin returns true with probability 1/2.
func (r *RNG) Coin() bool {
	return r.Uint64()&1 == 1
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
