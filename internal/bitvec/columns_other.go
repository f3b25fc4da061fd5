//go:build !amd64

package bitvec

// useAVX2 is false off amd64: AddRows runs the scalar kernel alone.
const useAVX2 = false

func addColumns4(counts *int64, col *byte, offs []int) {
	panic("bitvec: the AVX2 column kernel is amd64 only")
}
