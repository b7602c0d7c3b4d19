package core

import "testing"

// TestPoolCarvesDisjointSlices: carved slices start zeroed with the
// length and capacity asked for, never overlap (writes to one survive
// every later carve), a slice longer than the largest chunk gets its own,
// and append keeps a slice's elements when it moves it.
func TestPoolCarvesDisjointSlices(t *testing.T) {
	var a pool[int]
	var got [][]int
	for i := 0; i < 300; i++ {
		n := i % 37
		if i == 150 {
			n = 3 * maxPoolChunk
		}
		s := a.carve(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("carve %d: len %d cap %d", n, len(s), cap(s))
		}
		for j := range s {
			if s[j] != 0 {
				t.Fatalf("carve %d starts at %v", n, s)
			}
			s[j] = i
		}
		got = append(got, s)
	}
	var grown []int
	for v := 0; v < 100; v++ {
		grown = a.append(grown, v)
	}
	for i, s := range got {
		for _, v := range s {
			if v != i {
				t.Fatalf("carve %d reads %v after later carves", i, s)
			}
		}
	}
	for v, w := range grown {
		if v != w {
			t.Fatalf("appended slice reads %v", grown)
		}
	}
}
