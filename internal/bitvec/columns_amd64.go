package bitvec

// useAVX2 reports whether this processor and its OS run the AVX2 column
// kernel (columns_amd64.s); it is decided once, at start-up.
var useAVX2 = hasAVX2()

// hasAVX2 checks CPUID and XGETBV for AVX2 and for YMM state the OS saves.
func hasAVX2() bool

// addColumns4 adds the four word columns at col of every row in offs — the
// 32 bytes at col[off:] — into the 256 counters from counts on: sumColumn
// and unpackPlanes of four columns at once. offs holds at most maxPlaneRows
// rows, every one inside the region, which the caller checks.
//
//go:noescape
func addColumns4(counts *int64, col *byte, offs []int)
