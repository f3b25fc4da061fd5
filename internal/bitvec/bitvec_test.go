package bitvec

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestFlip(t *testing.T) {
	v := New(10)
	v.Flip(3)
	if !v.Get(3) {
		t.Fatal("flip of 0 bit did not set")
	}
	v.Flip(3)
	if v.Get(3) {
		t.Fatal("flip of 1 bit did not clear")
	}
}

func TestSetBool(t *testing.T) {
	v := New(4)
	v.SetBool(2, true)
	v.SetBool(2, false)
	if v.Get(2) {
		t.Fatal("SetBool(false) left bit set")
	}
	v.SetBool(1, true)
	if !v.Get(1) {
		t.Fatal("SetBool(true) did not set bit")
	}
}

func TestOnesCountAndOnes(t *testing.T) {
	v := New(200)
	want := []int{0, 63, 64, 100, 199}
	for _, i := range want {
		v.Set(i)
	}
	if v.OnesCount() != len(want) {
		t.Fatalf("OnesCount = %d, want %d", v.OnesCount(), len(want))
	}
	got := v.Ones()
	if len(got) != len(want) {
		t.Fatalf("Ones() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ones()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestReset(t *testing.T) {
	v := New(70)
	v.Set(0)
	v.Set(69)
	v.Reset()
	if v.OnesCount() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestCloneEqual(t *testing.T) {
	v := New(100)
	v.Set(5)
	v.Set(99)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(50)
	if v.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if v.Get(50) {
		t.Fatal("clone mutation leaked into original")
	}
	if v.Equal(New(99)) {
		t.Fatal("vectors of different length compare equal")
	}
}

func TestAddInto(t *testing.T) {
	v := New(5)
	v.Set(1)
	v.Set(4)
	counts := make([]int64, 5)
	v.AddInto(counts)
	v.AddInto(counts)
	want := []int64{0, 2, 0, 0, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestAddIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	New(5).AddInto(make([]int64, 4))
}

func TestBoundsPanics(t *testing.T) {
	v := New(8)
	for _, fn := range []func(){
		func() { v.Get(-1) },
		func() { v.Get(8) },
		func() { v.Set(8) },
		func() { v.Clear(-1) },
		func() { v.Flip(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected bounds panic")
				}
			}()
			fn()
		}()
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestZeroLength(t *testing.T) {
	v := New(0)
	if v.Len() != 0 || v.OnesCount() != 0 {
		t.Fatal("zero-length vector misbehaves")
	}
	v.ForEachSet(func(int) { t.Fatal("callback on empty vector") })
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(1)
	v.Set(3)
	if s := v.String(); s != "0101" {
		t.Fatalf("String() = %q, want 0101", s)
	}
}

// TestQuickAgainstMapModel drives random Set/Clear/Flip sequences and checks
// the vector against a map-based reference model.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 97
		v := New(n)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch (op / 97) % 3 {
			case 0:
				v.Set(i)
				model[i] = true
			case 1:
				v.Clear(i)
				delete(model, i)
			case 2:
				v.Flip(i)
				if model[i] {
					delete(model, i)
				} else {
					model[i] = true
				}
			}
		}
		if v.OnesCount() != len(model) {
			return false
		}
		for i := 0; i < n; i++ {
			if v.Get(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWords pins the layout Words exposes: bit i of the vector is bit i&63
// of word i>>6, and the words are the live backing store.
func TestWords(t *testing.T) {
	v := New(130)
	set := []int{0, 63, 64, 100, 129}
	for _, i := range set {
		v.Set(i)
	}
	words := v.Words()
	if len(words) != 3 {
		t.Fatalf("130-bit vector has %d backing words, want 3", len(words))
	}
	ones := 0
	for _, w := range words {
		ones += bits.OnesCount64(w)
	}
	if ones != len(set) {
		t.Fatalf("words hold %d set bits, want %d", ones, len(set))
	}
	for _, i := range set {
		if words[i>>6]>>(i&63)&1 != 1 {
			t.Fatalf("bit %d is not bit %d of word %d", i, i&63, i>>6)
		}
	}
	v.Set(1)
	if words[0]&2 == 0 {
		t.Fatal("Words is a copy, not the backing store")
	}
}
