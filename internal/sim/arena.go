package sim

import "slices"

// Arena slab sizes, in machines. Slabs keep pointers stable (they are never
// reallocated) without requiring the caller to know the node count up front
// — the harness's presumed n can differ from the true network size, so
// factories cannot size one slab. The first slab is small because most
// networks a sweep builds are; later ones double up to the maximum, so the
// slabs of n machines never hold more than 2n+64.
const (
	minArenaChunk = 64
	maxArenaChunk = 1024
)

// Arena is a chunked slab allocator for per-node machine state. Protocol
// factories allocate one machine per node; doing that with individual
// `new` calls costs n heap objects per trial. An Arena hands out pointers
// into slabs of up to 1024 elements instead, so a million-node build does
// ~1000 allocations rather than a million, while every returned pointer
// stays valid for as long as its machine is referenced.
//
// The zero value is ready to use. Arenas are single-goroutine (the
// simulator constructs machines sequentially); create one arena per
// factory, never share one across concurrently-built networks. Elements
// are zero-initialized and never recycled.
type Arena[T any] struct{ slab []T }

// New returns a pointer to a fresh zero-valued T with a stable address.
func (a *Arena[T]) New() *T {
	if len(a.slab) == cap(a.slab) {
		a.slab = make([]T, 0, min(max(2*cap(a.slab), minArenaChunk), maxArenaChunk))
	}
	a.slab = a.slab[:len(a.slab)+1]
	return &a.slab[len(a.slab)-1]
}

// Table is a per-node map from a 64-bit source ID (a candidate's random
// ID) to per-execution state, kept sorted by ID on insert. The paper
// multiplexes at most 4c·log n executions into a super-round, so a table
// holds O(log n) entries: a linear scan beats hashing, and ascending
// iteration — the super-round slot order every backend must
// agree on — needs no per-round sort. The zero value is an empty table.
type Table[V any] struct {
	ids  []uint64
	vals []V
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.ids) }

// At returns the i-th smallest ID and its value.
func (t *Table[V]) At(i int) (uint64, *V) { return t.ids[i], &t.vals[i] }

// Index returns the position of id in ascending order, or -1.
func (t *Table[V]) Index(id uint64) int {
	for i, k := range t.ids {
		if k == id {
			return i
		}
	}
	return -1
}

// Find returns the value stored under id, or nil.
func (t *Table[V]) Find(id uint64) *V {
	if i := t.Index(id); i >= 0 {
		return &t.vals[i]
	}
	return nil
}

// Insert returns the value stored under id, first adding a zero V at its
// sorted position when id is absent (added reports which). An insert moves
// the entries above it, so pointers from earlier calls die with it.
func (t *Table[V]) Insert(id uint64) (v *V, added bool) {
	i := 0
	for i < len(t.ids) && t.ids[i] < id {
		i++
	}
	if i == len(t.ids) || t.ids[i] != id {
		var zero V
		t.ids = slices.Insert(t.ids, i, id)
		t.vals = slices.Insert(t.vals, i, zero)
		added = true
	}
	return &t.vals[i], added
}

// Message chunk sizes: a machine's first chunk is small because most nodes
// send a handful of messages, later ones double up to the maximum.
const (
	minMsgChunk = 8
	maxMsgChunk = 64
)

// Msgs allocates a machine's outgoing messages of one payload type out of
// append-only chunks, so Context.Send boxes a pointer (free) rather than a
// value (one heap object per message). Chunks are never recycled: a sent
// message stays valid and immutable for as long as anything — a delayed
// packet, an observer, a trace — still points at it, and the garbage
// collector frees a chunk once nothing does. The zero value is ready.
type Msgs[T any] struct{ chunk []T }

// New returns a pointer to a copy of v with a stable address.
func (m *Msgs[T]) New(v T) *T {
	if len(m.chunk) == cap(m.chunk) {
		m.chunk = make([]T, 0, min(max(2*cap(m.chunk), minMsgChunk), maxMsgChunk))
	}
	m.chunk = append(m.chunk, v)
	return &m.chunk[len(m.chunk)-1]
}
