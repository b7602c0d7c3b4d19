package sim

import (
	"slices"
	"testing"

	"anonlead/internal/rng"
)

// TestTableSortedUnderArbitraryInsertOrder: whatever order IDs arrive in,
// iteration is ascending, every inserted ID is found with its own value,
// re-inserting is a lookup, and absent IDs miss.
func TestTableSortedUnderArbitraryInsertOrder(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		var tab Table[int]
		want := map[uint64]int{}
		for len(want) < 1+trial%24 {
			id := 1 + r.Uint64n(40) // small space: duplicates are common
			v, added := tab.Insert(id)
			if _, dup := want[id]; added == dup {
				t.Fatalf("Insert(%d) added=%v with present=%v", id, added, dup)
			}
			if added {
				if *v != 0 {
					t.Fatalf("fresh entry %d holds %d, want zero", id, *v)
				}
				*v = int(id) * 3
				want[id] = *v
			}
		}
		if tab.Len() != len(want) {
			t.Fatalf("Len %d want %d", tab.Len(), len(want))
		}
		var ids []uint64
		for i := 0; i < tab.Len(); i++ {
			id, v := tab.At(i)
			if *v != want[id] {
				t.Fatalf("At(%d) = (%d, %d), want value %d", i, id, *v, want[id])
			}
			if tab.Index(id) != i || tab.Find(id) != v {
				t.Fatalf("Index/Find(%d) disagree with At(%d)", id, i)
			}
			ids = append(ids, id)
		}
		if !slices.IsSorted(ids) {
			t.Fatalf("iteration not ascending: %v", ids)
		}
		for id := uint64(41); id < 45; id++ {
			if tab.Find(id) != nil || tab.Index(id) != -1 {
				t.Fatalf("absent id %d found", id)
			}
		}
	}
	var empty Table[int]
	if empty.Len() != 0 || empty.Find(1) != nil {
		t.Fatal("zero table is not empty")
	}
}

// TestTableMutateWhileIteratingAscending is WalkNotify's "parked tokens of
// smaller candidates die" path: one ascending pass clears every entry
// below a new mark through the At pointers, entries stay in place (a
// cleared candidate keeps its breadcrumb), and the pass sees each entry
// exactly once.
func TestTableMutateWhileIteratingAscending(t *testing.T) {
	type cand struct{ back, parked int }
	var tab Table[cand]
	for _, id := range []uint64{50, 10, 40, 20, 30} {
		c, _ := tab.Insert(id)
		*c = cand{back: int(id), parked: 2}
	}
	const mark = 35
	var died []uint64
	for i := 0; i < tab.Len(); i++ {
		if id, c := tab.At(i); id < mark && c.parked > 0 {
			c.parked = 0
			died = append(died, id)
		}
	}
	if !slices.Equal(died, []uint64{10, 20, 30}) {
		t.Fatalf("died %v, want the entries below the mark in ascending order", died)
	}
	for i := 0; i < tab.Len(); i++ {
		id, c := tab.At(i)
		want := cand{back: int(id), parked: 2}
		if id < mark {
			want.parked = 0
		}
		if *c != want {
			t.Fatalf("entry %d = %+v after the pass, want %+v", id, *c, want)
		}
	}
}

// TestArenaSlabsDoubleToTheMaximum: machines keep distinct stable
// addresses and zero values, a small network gets a small slab, and slabs
// double up to the maximum.
func TestArenaSlabsDoubleToTheMaximum(t *testing.T) {
	var a Arena[[2]int]
	var got []*[2]int
	for i := 0; i < 3*maxArenaChunk; i++ {
		p := a.New()
		if *p != [2]int{} {
			t.Fatalf("machine %d starts at %v, want zero", i, *p)
		}
		*p = [2]int{i, -i}
		got = append(got, p)
		if i == 0 && cap(a.slab) != minArenaChunk {
			t.Fatalf("first slab holds %d machines, want %d", cap(a.slab), minArenaChunk)
		}
		if cap(a.slab) > maxArenaChunk || cap(a.slab) > 2*max(i+1, minArenaChunk) {
			t.Fatalf("after %d machines the slab holds %d", i+1, cap(a.slab))
		}
	}
	for i, p := range got {
		if *p != [2]int{i, -i} {
			t.Fatalf("machine %d reads %v after later builds", i, *p)
		}
	}
}

// TestMsgsStayValidAndDistinct: a message handed out keeps its address and
// value across later allocations (delayed packets and observers hold the
// pointer), and chunk growth stops at the maximum.
func TestMsgsStayValidAndDistinct(t *testing.T) {
	var m Msgs[[2]int]
	var got []*[2]int
	for i := 0; i < 5*maxMsgChunk; i++ {
		got = append(got, m.New([2]int{i, -i}))
		if cap(m.chunk) > maxMsgChunk {
			t.Fatalf("chunk of %d entries, max %d", cap(m.chunk), maxMsgChunk)
		}
	}
	seen := map[*[2]int]bool{}
	for i, p := range got {
		if *p != [2]int{i, -i} {
			t.Fatalf("message %d reads %v after later sends", i, *p)
		}
		if seen[p] {
			t.Fatalf("message %d shares an address", i)
		}
		seen[p] = true
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < maxMsgChunk; i++ {
			m.New([2]int{})
		}
	}); allocs > 1 {
		t.Fatalf("%v allocations per %d messages, want 1", allocs, maxMsgChunk)
	}
}
