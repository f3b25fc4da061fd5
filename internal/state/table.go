package state

import (
	"encoding/binary"
	"fmt"
	"math"
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
// and leaves dst equal to the table DecodeTable returns. Whatever dst
// held before is overwritten; on error its contents are unspecified.
func DecodeTableInto(dst *Table, data []byte) error {
	if len(data) == 0 || data[0] != tableTag {
		return fmt.Errorf("state: not a count table")
	}
	rest := data[1:]
	var head [5]int64
	for i := range head {
		if head[i], rest = uvarint(rest); head[i] < 0 {
			return fmt.Errorf("state: table header truncated or malformed")
		}
	}
	oneHot, routes, rows, cols, n := head[0], head[1], head[2], head[3], head[4]
	// Every cell costs at least one byte, which bounds the allocation by
	// the input before anything is allocated.
	left := int64(len(rest))
	switch {
	case oneHot > 1:
		return fmt.Errorf("state: table flag %d", oneHot)
	case routes != 0 && routes != rows:
		return fmt.Errorf("state: table has %d route counts for %d rows", routes, rows)
	case rows > left || cols > left || routes+rows*cols > left:
		return fmt.Errorf("state: table of %d+%d×%d cells in %d bytes", routes, rows, cols, left)
	}
	dst.Shape = Shape{Routes: int(routes), Rows: int(rows), Cols: int(cols), OneHot: oneHot == 1}
	dst.N = n
	size := int(routes + rows*cols)
	if dst.Cells == nil || cap(dst.Cells) < size {
		dst.Cells = make([]int64, size)
	}
	cells := dst.Cells[:size]
	dst.Cells = cells
	for i := 0; i < len(cells); {
		// Eight one-byte cells at a time: no byte of the word carries a
		// continuation bit.
		if len(rest) >= 8 && len(cells)-i >= 8 {
			if w := binary.LittleEndian.Uint64(rest); w&0x8080808080808080 == 0 {
				c := cells[i : i+8 : i+8]
				c[0], c[1], c[2], c[3] = int64(w&0x7f), int64(w>>8&0x7f), int64(w>>16&0x7f), int64(w>>24&0x7f)
				c[4], c[5], c[6], c[7] = int64(w>>32&0x7f), int64(w>>40&0x7f), int64(w>>48&0x7f), int64(w>>56)
				rest, i = rest[8:], i+8
				continue
			}
		}
		if cells[i], rest = uvarint(rest); cells[i] < 0 {
			return fmt.Errorf("state: table cell %d truncated or malformed", i)
		}
		i++
	}
	if len(rest) != 0 {
		return fmt.Errorf("state: %d bytes after the table", len(rest))
	}
	return dst.Check()
}

// uvarint decodes one minimal uvarint that fits an int64 from the front of
// b and returns it with the bytes after it, or -1 for a truncated,
// non-minimal or oversized one.
func uvarint(b []byte) (int64, []byte) {
	if len(b) > 0 && b[0] < 0x80 {
		return int64(b[0]), b[1:]
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
