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
// agree on — needs no per-round sort. One slice holds each ID beside its
// value, so growth is one allocation, and the first holds minTable entries
// since a node in an election learns of several sources. The zero value is
// an empty table.
type Table[V any] struct{ entries []tableEntry[V] }

// minTable is the capacity of a table's first allocation.
const minTable = 4

type tableEntry[V any] struct {
	id  uint64
	val V
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.entries) }

// At returns the i-th smallest ID and its value.
func (t *Table[V]) At(i int) (uint64, *V) { return t.entries[i].id, &t.entries[i].val }

// Index returns the position of id in ascending order, or -1.
func (t *Table[V]) Index(id uint64) int {
	for i := range t.entries {
		if t.entries[i].id == id {
			return i
		}
	}
	return -1
}

// Find returns the value stored under id, or nil.
func (t *Table[V]) Find(id uint64) *V {
	if i := t.Index(id); i >= 0 {
		return &t.entries[i].val
	}
	return nil
}

// Insert returns the value stored under id, first adding a zero V at its
// sorted position when id is absent (added reports which). An insert moves
// the entries above it, so pointers from earlier calls die with it.
func (t *Table[V]) Insert(id uint64) (v *V, added bool) {
	i := 0
	for i < len(t.entries) && t.entries[i].id < id {
		i++
	}
	if i == len(t.entries) || t.entries[i].id != id {
		if t.entries == nil {
			t.entries = make([]tableEntry[V], 0, minTable)
		}
		t.entries = slices.Insert(t.entries, i, tableEntry[V]{id: id})
		added = true
	}
	return &t.entries[i].val, added
}

// msgInline is how many messages a ring slot holds in place: enough for
// the few sends of one type a node makes in most rounds, so a warmed ring
// is usually its one allocation.
const msgInline = 8

// Msgs allocates a machine's outgoing messages of one payload type, so
// Context.Send boxes a pointer (free) rather than a value (one heap object
// per message). Messages live on a ring of Context.life per-round slots: a
// message sent in round r stays valid until the receiver's step in the last
// round a delay can hold it to, and its slot is refilled by the sends of
// round r+life. A slot that outgrows its room moves to a heap chunk of
// twice the size, which it keeps, so a warmed ring allocates nothing. With
// life 0 (a delay bound too long for a ring) each message is its own heap
// object, which the garbage collector frees once no packet points to it.
//
// Only the network and its receivers hold a sent message, and receivers
// copy what they keep past their step (see Payload). A pointer kept longer
// — the benchmark samples payloads for its frame codec — still reads a
// valid message of its type, a later one. The zero value is ready; a Msgs
// belongs to one machine.
type Msgs[T any] struct{ ring []msgSlot[T] }

// msgSlot holds the messages of one send round.
type msgSlot[T any] struct {
	round int
	buf   []T // the round's messages: a prefix of first, or a heap chunk
	first [msgInline]T
}

// New returns a pointer to a copy of v, valid as the Msgs doc says. ctx is
// the sending machine's context of the current call.
func (m *Msgs[T]) New(ctx *Context, v T) *T {
	if ctx.life == 0 {
		p := new(T)
		*p = v
		return p
	}
	if m.ring == nil {
		m.ring = make([]msgSlot[T], ctx.life)
	}
	s := &m.ring[(ctx.round+1)%len(m.ring)]
	if s.round != ctx.round {
		s.round, s.buf = ctx.round, s.buf[:0]
	}
	switch {
	case s.buf == nil:
		s.buf = s.first[:0]
	case len(s.buf) == cap(s.buf):
		s.buf = make([]T, 0, 2*cap(s.buf))
	}
	s.buf = append(s.buf, v)
	return &s.buf[len(s.buf)-1]
}
