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
	for i, c := range o.Cells {
		t.Cells[i] += c
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
	out := make([]byte, 0, 16+2*len(t.Cells))
	out = append(out, tableTag)
	oneHot := uint64(0)
	if t.OneHot {
		oneHot = 1
	}
	for _, v := range []uint64{oneHot, uint64(t.Routes), uint64(t.Rows), uint64(t.Cols), uint64(t.N)} {
		out = binary.AppendUvarint(out, v)
	}
	for _, c := range t.Cells {
		out = binary.AppendUvarint(out, uint64(c))
	}
	return out, nil
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
	if len(data) == 0 || data[0] != tableTag {
		return Table{}, fmt.Errorf("state: not a count table")
	}
	rest := data[1:]
	next := func() int64 {
		v, n := binary.Uvarint(rest)
		switch {
		case n <= 0, n > 1 && rest[n-1] == 0, v > math.MaxInt64:
			rest = nil
			return -1
		}
		rest = rest[n:]
		return int64(v)
	}
	var head [5]int64
	for i := range head {
		if head[i] = next(); head[i] < 0 {
			return Table{}, fmt.Errorf("state: table header truncated or malformed")
		}
	}
	oneHot, routes, rows, cols, n := head[0], head[1], head[2], head[3], head[4]
	// Every cell costs at least one byte, which bounds the allocation by
	// the input before anything is allocated.
	left := int64(len(rest))
	switch {
	case oneHot > 1:
		return Table{}, fmt.Errorf("state: table flag %d", oneHot)
	case routes != 0 && routes != rows:
		return Table{}, fmt.Errorf("state: table has %d route counts for %d rows", routes, rows)
	case rows > left || cols > left || routes+rows*cols > left:
		return Table{}, fmt.Errorf("state: table of %d+%d×%d cells in %d bytes", routes, rows, cols, left)
	}
	t := NewTable(Shape{Routes: int(routes), Rows: int(rows), Cols: int(cols), OneHot: oneHot == 1})
	t.N = n
	for i := range t.Cells {
		if t.Cells[i] = next(); t.Cells[i] < 0 {
			return Table{}, fmt.Errorf("state: table cell %d truncated or malformed", i)
		}
	}
	if len(rest) != 0 {
		return Table{}, fmt.Errorf("state: %d bytes after the table", len(rest))
	}
	if err := t.Check(); err != nil {
		return Table{}, err
	}
	return t, nil
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
