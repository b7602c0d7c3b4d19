package congest

import "testing"

func TestBitLen(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1 << 40: 41}
	for x, want := range cases {
		if got := BitLen(x); got != want {
			t.Fatalf("BitLen(%d) = %d want %d", x, got, want)
		}
	}
}

func TestFragments(t *testing.T) {
	cases := []struct{ bits, budget, want int }{
		{0, 8, 1}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {16, 8, 2}, {17, 8, 3}, {100, 1, 100},
	}
	for _, c := range cases {
		if got := Fragments(c.bits, c.budget); got != c.want {
			t.Fatalf("Fragments(%d, %d) = %d want %d", c.bits, c.budget, got, c.want)
		}
	}
}

func TestFragmentsPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fragments(8, 0)
}
