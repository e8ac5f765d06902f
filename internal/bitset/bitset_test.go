package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("new set has count %d", s.Count())
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 100; i++ {
		if s.Contains(i) {
			t.Fatalf("new set contains %d", i)
		}
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Len() != 0 || !s.Full() {
		t.Fatal("empty-capacity set misbehaves")
	}
	s.Fill()
	if s.Count() != 0 {
		t.Fatal("Fill on zero-capacity set set bits")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearContains(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Set(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) false after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) true after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d after Clear, want 7", s.Count())
	}
}

func TestTestAndSet(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		if s.TestAndSet(i) {
			t.Fatalf("TestAndSet(%d) reported a fresh item present", i)
		}
		if !s.Contains(i) || !s.TestAndSet(i) {
			t.Fatalf("TestAndSet(%d) did not mark the item", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(10)
	s.Set(3)
	s.Set(3)
	if s.Count() != 1 {
		t.Fatalf("double Set gave count %d", s.Count())
	}
}

func TestFillAndFull(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		s := New(n)
		if s.Full() {
			t.Fatalf("n=%d: empty set reports Full", n)
		}
		s.Fill()
		if got := s.Count(); got != n {
			t.Fatalf("n=%d: Fill gave count %d", n, got)
		}
		if !s.Full() {
			t.Fatalf("n=%d: filled set not Full", n)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Reset left count %d", s.Count())
	}
}

func TestEqualCloneCopyFrom(t *testing.T) {
	a := New(70)
	a.Set(0)
	a.Set(69)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(5)
	if a.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(New(71)) {
		t.Fatal("different capacities compare equal")
	}
}

func TestMembersOrderAndForEach(t *testing.T) {
	s := New(300)
	items := []int{299, 0, 128, 64, 65, 7}
	for _, i := range items {
		s.Set(i)
	}
	got := s.Members(nil)
	want := []int{0, 7, 64, 65, 128, 299}
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	var walked []int
	s.ForEach(func(i int) { walked = append(walked, i) })
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", walked, want)
		}
	}
}

func TestMembersAppendsToDst(t *testing.T) {
	s := New(10)
	s.Set(4)
	dst := []int{-1}
	dst = s.Members(dst)
	if len(dst) != 2 || dst[0] != -1 || dst[1] != 4 {
		t.Fatalf("Members append = %v", dst)
	}
}

// Property: Set then Contains always true; count equals number of distinct
// items inserted.
func TestSetContainsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		distinct := make(map[int]bool)
		for _, r := range raw {
			i := int(r)
			s.Set(i)
			distinct[i] = true
			if !s.Contains(i) {
				return false
			}
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < b.N; i++ {
		s.Set(i & ((1 << 20) - 1))
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 20)
	s.Fill()
	for i := 0; i < b.N; i++ {
		if s.Count() != 1<<20 {
			b.Fatal("bad count")
		}
	}
}
