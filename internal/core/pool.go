package core

// Pool chunk sizes, in elements: a pool's first chunk is small, later ones
// double up to the maximum, so a pool's memory follows what it hands out.
// (sim.Arena's machine slabs start at 64: a machine per node is known to
// come, a carve per machine is not.)
const (
	minPoolChunk = 16
	maxPoolChunk = 1024
)

// pool carves exact-size slices out of chunks it allocates, so many short
// slices cost one allocation per chunk. Carved memory is never handed out
// again: a carved slice lives as long as its owner, and regions a grown
// slice leaves behind are not reused. IRE keeps one pool per factory for
// the walk counts (factories run one at a time) and one per machine for
// what a Step grows (backends step machines concurrently). The zero value
// is ready.
type pool[T any] struct{ chunk []T }

// carve returns a zeroed slice of length and capacity n.
func (p *pool[T]) carve(n int) []T {
	if cap(p.chunk)-len(p.chunk) < n {
		p.chunk = make([]T, 0, max(n, min(max(2*cap(p.chunk), minPoolChunk), maxPoolChunk)))
	}
	end := len(p.chunk) + n
	p.chunk = p.chunk[:end]
	return p.chunk[end-n : end : end]
}

// append appends v to s, first moving s to a region of twice its capacity
// carved from the pool when s is full.
func (p *pool[T]) append(s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(p.carve(max(2*cap(s), 2))[:0], s...)
	}
	return append(s, v)
}
