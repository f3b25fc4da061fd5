package state

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the one shape of report-tier state. Every estimator of the
// paper — HEC, the PTJ reshape, PTS's Eq. (6), CP's Eq. (4), the mean
// frameworks — is a closed-form function of integer counts, so every
// report-tier aggregate is a Table plus its framework's calibration: Merge
// is a vector add, a copy is one slice copy, and the bytes an envelope
// carries are the table's own canonical encoding.

// Shape is a table's layout and the invariant its rows keep.
type Shape struct {
	// Routes is how many route counts head the table: 0, when every row
	// counts the same N reports (a single-value oracle, PTJ's joint domain,
	// the mean tier's cells), or Rows, when row r counts only the Cells[r]
	// reports routed to it (HEC's groups, PTS's perturbed labels).
	Routes int
	// Rows rows of Cols counts follow the route counts.
	Rows, Cols int
	// OneHot marks rows to which a report adds exactly one count (GRR
	// values, mean symbols), so a row sums to its route's reports. Other
	// rows (unary encodings, OLH supports, CP's kept bits) count a report
	// at most once per cell, so no cell exceeds its route's reports.
	OneHot bool
}

func (s Shape) String() string {
	return fmt.Sprintf("%d routes + %d×%d (one-hot %v)", s.Routes, s.Rows, s.Cols, s.OneHot)
}

// Table is a report-tier aggregate's integer state.
type Table struct {
	Shape
	// N is the number of reports folded in.
	N int64
	// Cells holds the Routes route counts, then Rows rows of Cols counts.
	Cells []int64
}

// NewTable returns an empty table of shape s.
func NewTable(s Shape) Table {
	return Table{Shape: s, Cells: make([]int64, s.Routes+s.Rows*s.Cols)}
}

// Row returns row r's cells; the slice aliases the table.
func (t *Table) Row(r int) []int64 {
	off := t.Routes + r*t.Cols
	return t.Cells[off : off+t.Cols : off+t.Cols]
}

// Route returns the number of reports row r counts.
func (t *Table) Route(r int) int64 {
	if t.Routes == 0 {
		return t.N
	}
	return t.Cells[r]
}

// Merge adds o into t. The shapes must match; counts are integers, so any
// partition of a report stream merges to the same table.
func (t *Table) Merge(o *Table) error {
	if o.Shape != t.Shape {
		return fmt.Errorf("state: cannot merge a %v table into a %v one", o.Shape, t.Shape)
	}
	// No cell of a valid table exceeds its N, so N bounds every sum.
	if o.N > math.MaxInt64-t.N {
		return fmt.Errorf("state: merge overflows the report count (%d + %d)", t.N, o.N)
	}
	t.N += o.N
	cells := t.Cells[:len(o.Cells)] // one bounds check, not one a cell
	for i, c := range o.Cells {
		cells[i] += c
	}
	return nil
}

// Clone returns a copy of t that shares nothing with it.
func (t *Table) Clone() Table {
	return Table{Shape: t.Shape, N: t.N, Cells: slices.Clone(t.Cells)}
}

// tableTag opens every encoded table. Gob, the payload format tables
// replaced, opens a stream with a message length whose first byte is below
// 0x80 or at least 0xf8, so a reader tells the two formats apart from the
// first byte alone.
const tableTag = 0xd4

// MarshalBinary encodes t canonically — equal tables, equal bytes:
//
//	tag  oneHot  routes  rows  cols  N  cells...
//
// every field after the tag a minimal little-endian uvarint.
func (t *Table) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, t.sizeHint()))
}

// sizeHint is a buffer size that holds t's encoding without growing when
// most cells are below 2¹⁴.
func (t *Table) sizeHint() int { return 16 + 2*len(t.Cells) }

// AppendBinary appends MarshalBinary's bytes to b. A cell below 0x80, which
// is every cell of a delta of a few hundred reports, is one byte stored
// straight into b. It never fails; the error makes Table an
// encoding.BinaryAppender.
func (t *Table) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, 1+5*binary.MaxVarintLen64+len(t.Cells))
	b = append(b, tableTag)
	oneHot := uint64(0)
	if t.OneHot {
		oneHot = 1
	}
	for _, v := range [...]uint64{oneHot, uint64(t.Routes), uint64(t.Rows), uint64(t.Cols), uint64(t.N)} {
		b = binary.AppendUvarint(b, v)
	}
	cells := t.Cells
	for len(cells) > 0 {
		// Eight one-byte cells at a time, as one little-endian word.
		if len(cells) >= 8 {
			c := cells[:8:8]
			if uint64(c[0]|c[1]|c[2]|c[3]|c[4]|c[5]|c[6]|c[7]) < 0x80 {
				b = binary.LittleEndian.AppendUint64(b, uint64(c[0])|uint64(c[1])<<8|uint64(c[2])<<16|uint64(c[3])<<24|
					uint64(c[4])<<32|uint64(c[5])<<40|uint64(c[6])<<48|uint64(c[7])<<56)
				cells = cells[8:]
				continue
			}
		}
		if c := uint64(cells[0]); c < 0x80 {
			b = append(b, byte(c))
		} else {
			b = binary.AppendUvarint(b, c)
		}
		cells = cells[1:]
	}
	return b, nil
}

// UnmarshalBinary replaces t with the table data encodes, which must have
// t's shape. On error t is unchanged.
func (t *Table) UnmarshalBinary(data []byte) error {
	got, err := DecodeTable(data)
	if err != nil {
		return err
	}
	if got.Shape != t.Shape {
		return fmt.Errorf("state: table is %v, want %v", got.Shape, t.Shape)
	}
	*t = got
	return nil
}

// DecodeTable decodes a table and enforces the invariants of its shape: no
// count is negative, the route counts sum to N, a one-hot row sums to its
// route's reports and no other cell exceeds them. It accepts only the
// canonical encoding — minimal varints, no trailing bytes — so an accepted
// input re-encodes to itself. It never panics.
func DecodeTable(data []byte) (Table, error) {
	var t Table
	if err := DecodeTableInto(&t, data); err != nil {
		return Table{}, err
	}
	return t, nil
}

// DecodeTableInto is DecodeTable into dst, whose cells it reuses when
// their capacity allows: it accepts exactly the inputs DecodeTable accepts
// and leaves dst equal to the table DecodeTable returns. Whatever dst held
// before is overwritten; on error dst is unchanged.
func DecodeTableInto(dst *Table, data []byte) error {
	c, err := CheckTable(data)
	if err != nil {
		return err
	}
	dst.Reset(c.shape)
	return dst.MergeChecked(c)
}

// Reset makes t an empty table of shape s, reusing its cells when their
// capacity allows.
func (t *Table) Reset(s Shape) {
	size := s.Routes + s.Rows*s.Cols
	if t.Cells == nil || cap(t.Cells) < size {
		t.Cells = make([]int64, size)
	} else {
		t.Cells = t.Cells[:size]
		clear(t.Cells)
	}
	t.Shape, t.N = s, 0
}

// CheckedTable is an encoded table CheckTable vouched for. It aliases the
// bytes it was checked from, which must not change before it is merged.
// The zero value is the empty table of the zero shape.
type CheckedTable struct {
	shape Shape
	n     int64
	cells []byte
}

// Shape is the checked table's shape.
func (c CheckedTable) Shape() Shape { return c.shape }

// N is the number of reports the checked table counts.
func (c CheckedTable) N() int64 { return c.n }

// Eight one-byte cells read as one little-endian word: lanesHigh holds each
// lane's continuation bit, lanesLow a one in each lane. Four two-byte cells
// read the same way carry the continuation bits pairsCont; pairs moves
// their values into 16-bit lanes, whose top bits are pairsHigh and whose
// ones are pairsLow.
const (
	lanesHigh = 0x8080808080808080
	lanesLow  = 0x0101010101010101
	pairsCont = 0x0080008000800080
	pairsHigh = 0x8000800080008000
	pairsLow  = 0x0001000100010001
	pairs7f   = 0x007f007f007f007f
)

// CheckTable walks an encoded table once and enforces everything
// DecodeTable does — tag and header, minimal varints, the invariants of
// the table's shape, no trailing bytes — without storing a cell, so the
// table can then be added straight from its bytes (MergeChecked). It never
// panics.
func CheckTable(data []byte) (CheckedTable, error) {
	if len(data) == 0 || data[0] != tableTag {
		return CheckedTable{}, fmt.Errorf("state: not a count table")
	}
	rest := data[1:]
	var head [5]int64
	for i := range head {
		if head[i], rest = uvarint(rest); head[i] < 0 {
			return CheckedTable{}, fmt.Errorf("state: table header truncated or malformed")
		}
	}
	oneHot, routes, rows, cols, n := head[0], head[1], head[2], head[3], head[4]
	// Every cell costs at least one byte, which bounds the walk by the
	// input.
	left := int64(len(rest))
	switch {
	case oneHot > 1:
		return CheckedTable{}, fmt.Errorf("state: table flag %d", oneHot)
	case routes != 0 && routes != rows:
		return CheckedTable{}, fmt.Errorf("state: table has %d route counts for %d rows", routes, rows)
	case rows > left || cols > left || routes+rows*cols > left:
		return CheckedTable{}, fmt.Errorf("state: table of %d+%d×%d cells in %d bytes", routes, rows, cols, left)
	}
	c := CheckedTable{shape: Shape{Routes: int(routes), Rows: int(rows), Cols: int(cols), OneHot: oneHot == 1}, n: n, cells: rest}
	// The route counts sum to N; a second cursor reads them back, one a
	// row, as the rows are walked.
	unrouted, routeCounts := n, rest
	for i := 0; i < c.shape.Routes; i++ {
		var route int64
		if route, rest = uvarint(rest); route < 0 {
			return CheckedTable{}, fmt.Errorf("state: table cell %d truncated or malformed", i)
		}
		if route > unrouted {
			return CheckedTable{}, fmt.Errorf("state: route counts exceed %d reports", n)
		}
		unrouted -= route
	}
	if c.shape.Routes > 0 && unrouted != 0 {
		return CheckedTable{}, fmt.Errorf("state: route counts sum to %d, not %d reports", n-unrouted, n)
	}
	for r := 0; r < c.shape.Rows; r++ {
		route := n
		if c.shape.Routes > 0 {
			route, routeCounts = uvarint(routeCounts)
		}
		var err error
		if rest, err = c.shape.checkRow(rest, r, route); err != nil {
			return CheckedTable{}, err
		}
	}
	if len(rest) != 0 {
		return CheckedTable{}, fmt.Errorf("state: %d bytes after the table", len(rest))
	}
	return c, nil
}

// checkRow walks row r, whose route counts route reports, from the front
// of b and returns the bytes after it. A word of eight one-byte cells, or
// of four two-byte ones, is checked at once: a one-hot row subtracts the
// word's lane sum from what is left of its route, and any other row tests
// every lane against the route with one subtraction, unless no cell of
// that width can exceed the route (0x7f for one byte, 0x3fff for two). A
// word that fails goes through the cell at a time path, which names the
// cell at fault; that path too decodes a cell from the loaded word when it
// can (varint).
func (s Shape) checkRow(b []byte, r int, route int64) ([]byte, error) {
	// Lane i of limit−w keeps its high bit exactly when w's lane i is at
	// most route; no lane borrows from the next.
	left, limit, limit2 := route, uint64(0), uint64(0)
	if route < 0x7f {
		limit = uint64(route)*lanesLow | lanesHigh
	}
	if route < 0x3fff {
		limit2 = uint64(route)*pairsLow | pairsHigh
	}
	for i := 0; i < s.Cols; {
		c := int64(-1)
		if len(b) >= 8 {
			w := binary.LittleEndian.Uint64(b)
			if s.Cols-i >= 8 && w&lanesHigh == 0 {
				if s.OneHot {
					if sum := laneSum(w); sum <= left {
						left -= sum
						b, i = b[8:], i+8
						continue
					}
				} else if route >= 0x7f || (limit-w)&lanesHigh == lanesHigh {
					b, i = b[8:], i+8
					continue
				}
			} else if v, ok := pairs(w); ok && s.Cols-i >= 4 {
				if s.OneHot {
					if sum := int64(v * pairsLow >> 48); sum <= left {
						left -= sum
						b, i = b[8:], i+4
						continue
					}
				} else if route >= 0x3fff || (limit2-v)&pairsHigh == pairsHigh {
					b, i = b[8:], i+4
					continue
				}
			}
			if v, n := varint(w); n > 0 {
				c, b = int64(v), b[n:]
			}
		}
		if c < 0 {
			if c, b = uvarint(b); c < 0 {
				return nil, fmt.Errorf("state: table cell %d truncated or malformed", s.Routes+r*s.Cols+i)
			}
		}
		switch {
		case s.OneHot && c > left:
			return nil, fmt.Errorf("state: one-hot row %d exceeds %d reports", r, route)
		case s.OneHot:
			left -= c
		case c > route:
			return nil, fmt.Errorf("state: row %d cell %d counts %d of its %d reports", r, i, c, route)
		}
		i++
	}
	if s.OneHot && left != 0 {
		return nil, fmt.Errorf("state: one-hot row %d sums to %d, not %d reports", r, route-left, route)
	}
	return b, nil
}

// laneSum is the sum of w's eight byte lanes, each below 0x80.
func laneSum(w uint64) int64 {
	w = w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff // four 16-bit lanes
	return int64(w * pairsLow >> 48)
}

// pairs reads w as four minimal two-byte cells and returns their values,
// one in each 16-bit lane; ok is false when w is not four such cells.
func pairs(w uint64) (v uint64, ok bool) {
	hi := w >> 8 & pairs7f
	// hi+0x7f reaches a lane's 0x80 bit exactly when the lane's second
	// byte is not zero, which a minimal two-byte varint requires.
	return w&pairs7f | hi<<7, w&lanesHigh == pairsCont && (hi+pairs7f)&pairsCont == pairsCont
}

// MergeChecked adds the table c vouches for into t. It refuses a shape
// mismatch or a report count that would overflow before touching t, and
// then cannot fail: no cell of a valid table exceeds its N, so N bounds
// every sum. Eight one-byte cells, or four two-byte ones, are added per
// 64-bit load.
func (t *Table) MergeChecked(c CheckedTable) error {
	if c.shape != t.Shape {
		return fmt.Errorf("state: cannot merge a %v table into a %v one", c.shape, t.Shape)
	}
	if c.n > math.MaxInt64-t.N {
		return fmt.Errorf("state: merge overflows the report count (%d + %d)", t.N, c.n)
	}
	t.N += c.n
	cells, b := t.Cells[:c.shape.Routes+c.shape.Rows*c.shape.Cols], c.cells
	for i := 0; i < len(cells); {
		if len(b) >= 8 {
			w := binary.LittleEndian.Uint64(b)
			if len(cells)-i >= 8 && w&lanesHigh == 0 {
				d := cells[i : i+8 : i+8]
				d[0] += int64(w & 0x7f)
				d[1] += int64(w >> 8 & 0x7f)
				d[2] += int64(w >> 16 & 0x7f)
				d[3] += int64(w >> 24 & 0x7f)
				d[4] += int64(w >> 32 & 0x7f)
				d[5] += int64(w >> 40 & 0x7f)
				d[6] += int64(w >> 48 & 0x7f)
				d[7] += int64(w >> 56)
				b, i = b[8:], i+8
				continue
			}
			if v, ok := pairs(w); ok && len(cells)-i >= 4 {
				d := cells[i : i+4 : i+4]
				d[0] += int64(v & 0xffff)
				d[1] += int64(v >> 16 & 0xffff)
				d[2] += int64(v >> 32 & 0xffff)
				d[3] += int64(v >> 48)
				b, i = b[8:], i+4
				continue
			}
			if v, n := varint(w); n > 0 {
				cells[i] += int64(v)
				b, i = b[n:], i+1
				continue
			}
		}
		var v int64
		v, b = uvarint(b)
		cells[i] += v
		i++
	}
	return nil
}

// varint decodes a minimal varint of up to three bytes from the front of
// w, eight bytes read little-endian: its value and its length in bytes,
// or a length of 0 for anything else (uvarint then decides). It branches
// on the length rather than computing it, so a run of cells of one width
// decodes on predicted branches instead of waiting, cell after cell, for
// the previous one's length.
func varint(w uint64) (uint64, int) {
	switch {
	case w&0x80 == 0:
		return w & 0x7f, 1
	case w&0x8080 == 0x80 && w&0x7f00 != 0:
		return w&0x7f | w>>1&0x3f80, 2
	case w&0x808080 == 0x8080 && w&0x7f0000 != 0:
		return w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000, 3
	}
	return 0, 0
}

// uvarint decodes one minimal uvarint that fits an int64 from the front of
// b and returns it with the bytes after it, or -1 for a truncated,
// non-minimal or oversized one. One of up to eight bytes with eight bytes
// to read is decoded from one load: the first byte without a continuation
// bit ends it, and its 7-bit groups are gathered in place — pairs of
// groups, then pairs of pairs, then the two halves.
func uvarint(b []byte) (int64, []byte) {
	if len(b) > 0 && b[0] < 0x80 {
		return int64(b[0]), b[1:]
	}
	if len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		if n := bits.TrailingZeros64(^w&lanesHigh)>>3 + 1; n <= 8 {
			if b[n-1] == 0 {
				return -1, nil
			}
			w &= ^uint64(0) >> (64 - 8*n)
			w = w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
			w = w&0x00003fff00003fff | w>>2&0x0fffc0000fffc000
			return int64(w&0x0fffffff | w>>4&0x00fffffff0000000), b[n:]
		}
	}
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 || v > math.MaxInt64 {
		return -1, nil
	}
	return int64(v), b[n:]
}

// Check enforces the shape's invariants on non-negative counts.
func (t *Table) Check() error {
	if t.Routes > 0 {
		if err := sumsTo(t.Cells[:t.Routes], t.N); err != nil {
			return fmt.Errorf("state: route counts %w", err)
		}
	}
	for r := 0; r < t.Rows; r++ {
		row, route := t.Row(r), t.Route(r)
		if t.OneHot {
			if err := sumsTo(row, route); err != nil {
				return fmt.Errorf("state: one-hot row %d %w", r, err)
			}
			continue
		}
		for i, c := range row {
			if c > route {
				return fmt.Errorf("state: row %d cell %d counts %d of its %d reports", r, i, c, route)
			}
		}
	}
	return nil
}

// sumsTo checks that non-negative counts sum to exactly n, without
// overflowing on the way.
func sumsTo(counts []int64, n int64) error {
	left := n
	for _, c := range counts {
		if c > left {
			return fmt.Errorf("exceed %d reports", n)
		}
		left -= c
	}
	if left != 0 {
		return fmt.Errorf("sum to %d, not %d reports", n-left, n)
	}
	return nil
}
