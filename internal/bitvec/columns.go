package bitvec

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// This file is the frame-at-a-time counting kernel. A batch of packed
// bit-vector reports bound for one count vector is a rows × bits matrix, and
// the server's whole job is its column sums. Adding the rows one set bit at a
// time costs one dependent increment per set bit; AddRows instead walks the
// matrix word column by word column and keeps the 64 running sums of a column
// bit-sliced — plane k holds bit k of all 64 sums — so carry-save adders
// advance all 64 at once and the work is proportional to words × rows,
// whatever the density. Each column's planes are unpacked into counts once.
// Only a handful of rows (fewer than minColumnRows, counted per call, never
// configured) are still added bit by bit. On amd64 with AVX2, rows of four
// words or more are summed four word columns at a time by the same
// algorithm in assembly (columns_amd64.s).

const (
	// rowPlanes is how many counter planes a column keeps on the stack: one
	// byte per sum, which is what unpackPlanes transposes in one go.
	rowPlanes = 8
	// minColumnRows is where summing by column starts to pay. Unpacking a
	// column's planes is a fixed ~60 ns however few rows fed them, which one
	// or two rows never earn back; from eight rows on the column sum wins at
	// every density a private mechanism produces (measured: 16-word rows, a
	// quarter of the bits set — 8 rows cost 128 ns/row by column, 210 by bit).
	minColumnRows = 8
	// maxPlaneRows is the most rows one pass adds before unpacking — fifteen
	// whole trees, under the 255 a byte-wide sum can hold. Longer row lists
	// are counted in passes of that many.
	maxPlaneRows = 15 * 16
)

// AddRows adds len(offs) packed bit vectors into counts: row r is the nw
// little-endian words at rec[offs[r]:], bit i of a row (bit i&63 of its word
// i>>6) is added to counts[i]. counts may be shorter than nw*64 — the
// validity flag of a kept report has no count — but every set bit must index
// into it, and every row must lie inside rec; AddRows panics otherwise,
// possibly after adding some columns.
//
// Rows of four words or more go to the AVX2 kernel where the processor has
// one, unless there are too few of them to sum by column at all; every
// other call goes to the scalar kernel.
func AddRows(counts []int64, rec []byte, offs []int, nw int) {
	if nw >= 4 && len(offs) >= minColumnRows && useAVX2 {
		addRowsAVX2(counts, rec, offs, nw)
		return
	}
	addRowsScalar(counts, rec, offs, nw)
}

// addRowsAVX2 is AddRows through the AVX2 kernel: each pass sums the column
// groups of four that lie whole inside counts four columns a call. A last
// group that counts cuts short — the word of a kept report's validity flag —
// is summed into a block on the stack, of which counts takes what it holds;
// a nonzero sum beyond that is a stray bit and panics. Fewer than four
// columns left over are summed one at a time as addRowsScalar does. The
// kernel reads rows unchecked, so every row is bounds-checked here first.
func addRowsAVX2(counts []int64, rec []byte, offs []int, nw int) {
	for _, off := range offs {
		_ = rec[off : off+nw*8]
	}
	groups := min(nw, len(counts)/64) / 4
	short := nw == groups*4+4 // and so len(counts) < nw*64
	for len(offs) > 0 {
		pass := offs[:min(len(offs), maxPlaneRows)]
		offs = offs[len(pass):]
		for g := 0; g < groups; g++ {
			addColumns4(&counts[g*256], &rec[g*32], pass)
		}
		if short {
			var block [256]int64
			addColumns4(&block[0], &rec[groups*32], pass)
			tail := counts[groups*256:]
			for i, n := range block[:len(tail)] {
				tail[i] += n
			}
			for _, n := range block[len(tail):] {
				if n != 0 {
					panic("bitvec: a set bit lies beyond counts")
				}
			}
			continue
		}
		used := bits.Len(uint(len(pass)))
		for col := groups * 4; col < nw; col++ {
			var planes [rowPlanes]uint64
			sumColumn(&planes, used, rec[col*8:], pass)
			unpackPlanes(counts[min(col*64, len(counts)):], &planes)
		}
	}
}

// addRowsScalar is AddRows on 64 bits: the reference the AVX2 kernel is
// pinned to, and the path of every row narrower than four words.
func addRowsScalar(counts []int64, rec []byte, offs []int, nw int) {
	if len(offs) < minColumnRows {
		for _, off := range offs {
			row := rec[off : off+nw*8]
			for wi := 0; wi < nw; wi++ {
				for w := binary.LittleEndian.Uint64(row[wi*8:]); w != 0; w &= w - 1 {
					counts[wi<<6+bits.TrailingZeros64(w)]++
				}
			}
		}
		return
	}
	for len(offs) > 0 {
		pass := offs[:min(len(offs), maxPlaneRows)]
		offs = offs[len(pass):]
		used := bits.Len(uint(len(pass))) // planes a sum of len(pass) ones can reach
		for col := 0; col < nw; col++ {
			var planes [rowPlanes]uint64
			sumColumn(&planes, used, rec[col*8:], pass)
			unpackPlanes(counts[min(col*64, len(counts)):], &planes)
		}
	}
}

// AppendSetBits appends the indices of the set bits of one packed row — nw
// little-endian words at the head of row — to dst, in increasing order. It
// is how decoders materialize a report; the apply path never does.
func AppendSetBits(dst []int, row []byte, nw int) []int {
	for wi := 0; wi < nw; wi++ {
		for w := binary.LittleEndian.Uint64(row[wi*8:]); w != 0; w &= w - 1 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// csa is a carry-save (full) adder over 64 independent bit positions.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// sumColumn sums one word column — the word at col[off:] of every row — into
// bit-sliced planes. The running ones/twos/fours/eights stay in registers:
// the first len(offs)%16 rows ripple into them one at a time (fifteen ones
// cannot carry out of eights), then sixteen rows at a time go through a fixed
// carry-save tree, each tree emitting one word of weight sixteen that ripples
// into planes[4:used]. Every ripple visits all its planes, so no branch here
// depends on the data.
func sumColumn(planes *[rowPlanes]uint64, used int, col []byte, offs []int) {
	word := func(off int) uint64 { return binary.LittleEndian.Uint64(col[off:]) }
	var ones, twos, fours, eights uint64
	head := len(offs) % 16
	for _, off := range offs[:head] {
		c := word(off)
		ones, c = ones^c, ones&c
		twos, c = twos^c, twos&c
		fours, c = fours^c, fours&c
		eights ^= c
	}
	for offs = offs[head:]; len(offs) > 0; offs = offs[16:] {
		o := offs[:16]
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		ones, twosA = csa(ones, word(o[0]), word(o[1]))
		ones, twosB = csa(ones, word(o[2]), word(o[3]))
		twos, foursA = csa(twos, twosA, twosB)
		ones, twosA = csa(ones, word(o[4]), word(o[5]))
		ones, twosB = csa(ones, word(o[6]), word(o[7]))
		twos, foursB = csa(twos, twosA, twosB)
		fours, eightsA = csa(fours, foursA, foursB)
		ones, twosA = csa(ones, word(o[8]), word(o[9]))
		ones, twosB = csa(ones, word(o[10]), word(o[11]))
		twos, foursA = csa(twos, twosA, twosB)
		ones, twosA = csa(ones, word(o[12]), word(o[13]))
		ones, twosB = csa(ones, word(o[14]), word(o[15]))
		twos, foursB = csa(twos, twosA, twosB)
		fours, eightsB = csa(fours, foursA, foursB)
		eights, sixteens = csa(eights, eightsA, eightsB)
		for k := 4; k < used; k++ {
			planes[k], sixteens = planes[k]^sixteens, planes[k]&sixteens
		}
	}
	planes[0], planes[1], planes[2], planes[3] = ones, twos, fours, eights
}

// swapHigh exchanges the fields of a that mask<<shift selects with the
// fields of b that mask selects — one butterfly of a matrix transpose.
func swapHigh(a, b *uint64, shift int, mask uint64) {
	t := (*a>>shift ^ *b) & mask
	*b ^= t
	*a ^= t << shift
}

// unpackPlanes adds a column's bit-sliced sums into its counters: counts[b]
// gains the number whose bit k is bit b of plane w[k]. The planes are an 8×64
// bit matrix whose transpose is the 64 sums, one byte each; swapping the
// planes' bytes across words and then the bits inside each byte block gets
// there, in place, in six butterfly rounds. counts holds the column's counters and may
// stop short of 64; a nonzero sum beyond it is a stray bit and panics on the
// slice bound.
func unpackPlanes(counts []int64, w *[rowPlanes]uint64) {
	// After the byte rounds, byte k of w[j] is byte j of plane k.
	swapHigh(&w[0], &w[1], 8, 0x00ff00ff00ff00ff)
	swapHigh(&w[2], &w[3], 8, 0x00ff00ff00ff00ff)
	swapHigh(&w[4], &w[5], 8, 0x00ff00ff00ff00ff)
	swapHigh(&w[6], &w[7], 8, 0x00ff00ff00ff00ff)
	swapHigh(&w[0], &w[2], 16, 0x0000ffff0000ffff)
	swapHigh(&w[1], &w[3], 16, 0x0000ffff0000ffff)
	swapHigh(&w[4], &w[6], 16, 0x0000ffff0000ffff)
	swapHigh(&w[5], &w[7], 16, 0x0000ffff0000ffff)
	swapHigh(&w[0], &w[4], 32, 0x00000000ffffffff)
	swapHigh(&w[1], &w[5], 32, 0x00000000ffffffff)
	swapHigh(&w[2], &w[6], 32, 0x00000000ffffffff)
	swapHigh(&w[3], &w[7], 32, 0x00000000ffffffff)
	for j := range w {
		// After the bit rounds, byte m of x is the sum at position 8j+m.
		x := w[j]
		t := (x ^ x>>7) & 0x00aa00aa00aa00aa
		x ^= t ^ t<<7
		t = (x ^ x>>14) & 0x0000cccc0000cccc
		x ^= t ^ t<<14
		t = (x ^ x>>28) & 0x00000000f0f0f0f0
		x ^= t ^ t<<28
		if len(counts) >= 8*j+8 {
			c := counts[8*j : 8*j+8 : 8*j+8]
			c[0] += int64(x & 0xff)
			c[1] += int64(x >> 8 & 0xff)
			c[2] += int64(x >> 16 & 0xff)
			c[3] += int64(x >> 24 & 0xff)
			c[4] += int64(x >> 32 & 0xff)
			c[5] += int64(x >> 40 & 0xff)
			c[6] += int64(x >> 48 & 0xff)
			c[7] += int64(x >> 56)
			continue
		}
		for i := 8 * j; x != 0; i++ {
			counts[i] += int64(x & 0xff)
			x >>= 8
		}
	}
}

// RowSets is the scratch a frame's label walk fills before AddRows runs: the
// byte offsets of the frame's rows, grouped by the count vector each row adds
// into, and per set the number of rows dropped from it by the validity
// perturbation rule, which need no offset — a dropped report is counted, its
// bits never are. Sets are pooled, so a steady stream of frames allocates
// nothing.
type RowSets struct {
	rows    [][]int
	dropped []int
}

var rowSetsPool = sync.Pool{New: func() any { return new(RowSets) }}

// GetRowSets returns n empty sets; Put hands them back once the frame is
// applied.
func GetRowSets(n int) *RowSets {
	s := rowSetsPool.Get().(*RowSets)
	s.Reset(n)
	return s
}

// Reset empties s into n sets, keeping its storage; the zero RowSets is
// ready for it.
func (s *RowSets) Reset(n int) {
	if cap(s.rows) < n {
		s.rows = append(s.rows[:cap(s.rows)], make([][]int, n-cap(s.rows))...)
		s.dropped = make([]int, cap(s.rows))
	}
	s.rows, s.dropped = s.rows[:n], s.dropped[:n]
	for i := range s.rows {
		s.rows[i] = s.rows[i][:0]
	}
	clear(s.dropped)
}

// Put returns s to the pool; s and the slices Rows handed out are dead after.
func (s *RowSets) Put() { rowSetsPool.Put(s) }

// Add files the row at off under set i when drop is 0, and counts it as
// dropped from set i when drop is 1 — with no branch on drop, whose value is
// a coin flip per row under validity perturbation.
func (s *RowSets) Add(i, off, drop int) {
	r := append(s.rows[i], off)
	s.rows[i] = r[:len(r)-drop]
	s.dropped[i] += drop
}

// Rows returns the sets of kept rows, indexed as in Add.
func (s *RowSets) Rows() [][]int { return s.rows }

// Dropped returns how many rows Add dropped from set i.
func (s *RowSets) Dropped(i int) int { return s.dropped[i] }
