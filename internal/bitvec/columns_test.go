package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// addWordsInto is the per-set-bit scatter AddRows replaced — one increment
// per set bit of one row — kept as the reference the kernel is pinned to.
func addWordsInto(words []uint64, counts []int64) {
	for wi, w := range words {
		for w != 0 {
			counts[wi<<6+bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
}

// TestAddWordsInto checks the reference scatter against the bit-by-bit
// AddInto, over a straddling word boundary.
func TestAddWordsInto(t *testing.T) {
	v := New(70)
	for _, i := range []int{0, 5, 63, 64, 69} {
		v.Set(i)
	}
	direct := make([]int64, 70)
	v.AddInto(direct)
	viaWords := make([]int64, 70)
	addWordsInto(v.Words(), viaWords)
	for i := range direct {
		if direct[i] != viaWords[i] {
			t.Fatalf("counts diverge at bit %d: AddInto %d, addWordsInto %d", i, direct[i], viaWords[i])
		}
	}
}

// rowRegion lays out rows random nbits-wide bit vectors of the given density
// the way a frame does — each row's packed words behind a few bytes of other
// data, so offsets are unaligned — and returns the region with every row's
// offset.
func rowRegion(r *rand.Rand, rows, nbits int, density float64) (rec []byte, offs []int) {
	nw := (nbits + 63) / 64
	offs = make([]int, rows)
	for i := range offs {
		rec = append(rec, make([]byte, 1+r.Intn(3))...)
		offs[i] = len(rec)
		for w := 0; w < nw; w++ {
			var word uint64
			for b := 0; b < 64 && w*64+b < nbits; b++ {
				if r.Float64() < density {
					word |= 1 << b
				}
			}
			rec = binary.LittleEndian.AppendUint64(rec, word)
		}
	}
	return rec, offs
}

// checkAddRows adds the rows to counts that already hold values, through the
// kernel and through the reference, and requires identical vectors.
func checkAddRows(t *testing.T, r *rand.Rand, rows, nbits int, density float64) {
	t.Helper()
	rec, offs := rowRegion(r, rows, nbits, density)
	nw := (nbits + 63) / 64
	got := make([]int64, nbits)
	for i := range got {
		got[i] = r.Int63n(1 << 40)
	}
	want := append([]int64(nil), got...)
	words := make([]uint64, nw)
	for _, off := range offs {
		for w := range words {
			words[w] = binary.LittleEndian.Uint64(rec[off+w*8:])
		}
		addWordsInto(words, want)
	}
	AddRows(got, rec, offs, nw)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows=%d bits=%d density=%v: count %d is %d, reference %d", rows, nbits, density, i, got[i], want[i])
		}
	}
}

// TestAddRowsMatchesScatter pins the column kernel to the per-bit reference:
// every row count around the sixteen-row tree and the plane-count steps,
// widths that are and are not multiples of 64, sparse to dense rows, and row
// lists past 2^16 so one target needs more than one pass of planes.
func TestAddRowsMatchesScatter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for rows := 0; rows <= 70; rows++ {
		checkAddRows(t, r, rows, 1+r.Intn(200), 0.3)
	}
	for _, nbits := range []int{1, 63, 64, 65, 128, 1000, 1001, 1024, 1025, 1100} {
		for _, density := range []float64{0.01, 0.27, 0.5, 0.9} {
			checkAddRows(t, r, 1+r.Intn(600), nbits, density)
		}
	}
	for _, rows := range []int{255, 256, 4096, maxPlaneRows - 1, maxPlaneRows, maxPlaneRows + 1, 70000} {
		checkAddRows(t, r, rows, 1+r.Intn(130), 0.9)
	}
	for i := 0; i < 200; i++ {
		checkAddRows(t, r, r.Intn(2000), 1+r.Intn(1100), 0.01+0.89*r.Float64())
	}
}

// TestAddRowsShortCounts covers the validity-perturbation shape: rows one
// bit wider than counts, that bit clear in every row — including the width
// where the flag is alone in its word — and a set flag, which must panic
// instead of being dropped or counted elsewhere.
func TestAddRowsShortCounts(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, d := range []int{5, 63, 64, 1000, 1024} {
		rec, offs := rowRegion(r, 40, d+1, 0.4)
		nw := (d + 1 + 63) / 64
		for _, off := range offs {
			rec[off+d/8] &^= 1 << (d % 8)
		}
		got, want := make([]int64, d), make([]int64, d)
		words := make([]uint64, nw)
		for _, off := range offs {
			for w := range words {
				words[w] = binary.LittleEndian.Uint64(rec[off+w*8:])
			}
			addWordsInto(words, want)
		}
		AddRows(got, rec, offs, nw)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("d=%d: count %d is %d, reference %d", d, i, got[i], want[i])
			}
		}
		rec[offs[7]+d/8] |= 1 << (d % 8)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("d=%d: a set bit beyond counts did not panic", d)
				}
			}()
			AddRows(got, rec, offs, nw)
		}()
	}
}

// TestRowSetsDrop pins Add's branch-free drop: a dropped row is counted in
// its set and filed nowhere, a kept row is filed in order, and sets handed
// back to the pool come out empty again, whatever count they are asked for.
func TestRowSetsDrop(t *testing.T) {
	for _, n := range []int{3, 1, 7, 3} {
		s := GetRowSets(n)
		if len(s.Rows()) != n {
			t.Fatalf("GetRowSets(%d) returned %d sets", n, len(s.Rows()))
		}
		for i := 0; i < n; i++ {
			if len(s.Rows()[i]) != 0 || s.Dropped(i) != 0 {
				t.Fatalf("set %d of a fresh %d came out with rows %v, %d dropped", i, n, s.Rows()[i], s.Dropped(i))
			}
		}
		for off := 0; off < 40; off++ {
			s.Add(off%n, off, off%3/2) // every third offset, from 2, is dropped
		}
		for i, rows := range s.Rows() {
			var want []int
			dropped := 0
			for off := i; off < 40; off += n {
				if off%3 == 2 {
					dropped++
				} else {
					want = append(want, off)
				}
			}
			if fmt.Sprint(rows) != fmt.Sprint(want) || s.Dropped(i) != dropped {
				t.Fatalf("n=%d set %d: rows %v, %d dropped; want %v, %d", n, i, rows, s.Dropped(i), want, dropped)
			}
		}
		s.Put()
	}
}

func BenchmarkAddRows(b *testing.B) {
	for _, rows := range []int{1, 8, 64, 512} {
		for _, density := range []float64{0.02, 0.27} {
			r := rand.New(rand.NewSource(3))
			rec, offs := rowRegion(r, rows, 1001, density)
			counts := make([]int64, 1001)
			words := make([]uint64, 16)
			b.Run(fmt.Sprintf("columns/rows=%d/density=%v", rows, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AddRows(counts, rec, offs, 16)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
			b.Run(fmt.Sprintf("scatter/rows=%d/density=%v", rows, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, off := range offs {
						for w := range words {
							words[w] = binary.LittleEndian.Uint64(rec[off+w*8:])
						}
						addWordsInto(words, counts)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
