package bitvec

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzAddRows pins both column kernels — the scalar one and, on a processor
// that has it, the AVX2 one, each called directly whatever AddRows would
// pick — to the per-bit scatter: row counts from none through the sixteen-row
// tree and the 240-row pass edge to three passes, widths of 1 to 40 words,
// counts that stop 0 to 63 bits short of the last word with those bits clear
// in every row, and densities from empty to full rows.
func FuzzAddRows(f *testing.F) {
	for _, rows := range []uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 239, 240, 241, 600} {
		f.Add(rows, uint8(15), uint8(24), uint8(70), int64(rows)) // ptscp at d = 1,000
		f.Add(rows, uint8(3), uint8(0), uint8(255), int64(rows))
		f.Add(rows, uint8(0), uint8(63), uint8(128), int64(rows))
	}
	f.Fuzz(func(t *testing.T, rows uint16, nw, short, density uint8, seed int64) {
		n, words := int(rows)%601, 1+int(nw)%40
		nbits := words*64 - int(short)%64
		r := rand.New(rand.NewSource(seed))
		rec, offs := rowRegion(r, n, nbits, float64(density)/255)
		start := make([]int64, nbits)
		for i := range start {
			start[i] = r.Int63n(1 << 40)
		}
		want := append([]int64(nil), start...)
		row := make([]uint64, words)
		for _, off := range offs {
			for w := range row {
				row[w] = binary.LittleEndian.Uint64(rec[off+w*8:])
			}
			addWordsInto(row, want)
		}
		kernels := map[string]func([]int64, []byte, []int, int){"scalar": addRowsScalar}
		if useAVX2 {
			kernels["avx2"] = addRowsAVX2
		}
		for name, kernel := range kernels {
			got := append([]int64(nil), start...)
			kernel(got, rec, offs, words)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s kernel, %d rows of %d bits in %d words: count %d is %d, scatter %d",
						name, n, nbits, words, i, got[i]-start[i], want[i]-start[i])
				}
			}
		}
	})
}
