package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

func mustMarshal(t testing.TB, tab Table) []byte {
	t.Helper()
	b, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTableRoundTrip: a table decodes to itself, re-encodes to the same
// bytes, merges as a vector add and clones without sharing.
func TestTableRoundTrip(t *testing.T) {
	tab := NewTable(Shape{Routes: 2, Rows: 2, Cols: 3})
	tab.N = 300
	copy(tab.Cells, []int64{100, 200, 0, 99, 100, 200, 1, 150})
	blob := mustMarshal(t, tab)
	got, err := DecodeTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shape != tab.Shape || got.N != tab.N || !bytes.Equal(mustMarshal(t, got), blob) {
		t.Fatalf("decoded %+v, want %+v", got, tab)
	}
	cl := got.Clone()
	if err := got.Merge(&tab); err != nil {
		t.Fatal(err)
	}
	if got.N != 600 || got.Row(1)[2] != 300 || cl.N != 300 || cl.Row(1)[2] != 150 {
		t.Fatalf("merge/clone: merged %+v, clone %+v", got, cl)
	}
	if err := got.Merge(&Table{Shape: Shape{Rows: 1, Cols: 3}}); err == nil {
		t.Fatal("merged tables of different shapes")
	}
	overflow := tab.Clone()
	overflow.N = 1<<63 - 1
	if err := overflow.Merge(&tab); err == nil {
		t.Fatal("merge overflowed the report count")
	}
	var other Table
	other.Shape = Shape{Rows: 1, Cols: 8}
	if err := other.UnmarshalBinary(blob); err == nil || other.Cells != nil {
		t.Fatalf("a table restored into another shape (err %v)", err)
	}
}

// TestDecodeTableRejects: every table no report stream could produce, and
// every non-canonical or damaged encoding, is an error.
func TestDecodeTableRejects(t *testing.T) {
	valid := func() Table {
		tab := NewTable(Shape{Routes: 2, Rows: 2, Cols: 2, OneHot: true})
		tab.N = 5
		copy(tab.Cells, []int64{2, 3, 1, 1, 0, 3})
		return tab
	}
	if _, err := DecodeTable(mustMarshal(t, valid())); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Table){
		"negative count":          func(tab *Table) { tab.Cells[3] = -1 },
		"routes off N":            func(tab *Table) { tab.N = 6 },
		"one-hot row off route":   func(tab *Table) { tab.Row(0)[0] = 2 },
		"cell above its route":    func(tab *Table) { tab.OneHot = false; tab.Row(1)[1] = 4 },
		"routes for fewer rows":   func(tab *Table) { tab.Routes = 1; tab.Cells = tab.Cells[1:] },
		"single route off its N":  func(tab *Table) { tab.Routes = 0; tab.Cells = tab.Cells[2:] },
		"count beyond the int64s": func(tab *Table) { tab.N = -5 },
	} {
		tab := valid()
		mutate(&tab)
		if _, err := DecodeTable(mustMarshal(t, tab)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	blob := mustMarshal(t, valid())
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"not a table":    []byte("gob bytes"),
		"trailing byte":  append(bytes.Clone(blob), 0),
		"non-minimal":    append([]byte{blob[0], 0x80, 0x00}, blob[2:]...),
		"bad flag":       append([]byte{blob[0], 2}, blob[2:]...),
		"huge shape":     {tableTag, 0, 0, 0xff, 0xff, 0x03, 0xff, 0xff, 0x03, 0},
		"truncated cell": blob[:len(blob)-1],
	} {
		if _, err := DecodeTable(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestAppendBinaryBytesPinned: the encoding is the one logs and envelopes
// already hold — the tag, then every field a minimal uvarint — at each
// varint width boundary, so a build before the word-at-a-time codec reads
// what this one writes, and the reverse.
func TestAppendBinaryBytesPinned(t *testing.T) {
	tab := NewTable(Shape{Rows: 1, Cols: 5})
	tab.N = math.MaxInt64
	copy(tab.Cells, []int64{0, 127, 128, 1 << 14, math.MaxInt64})
	want := []byte{tableTag, 0, 0, 1, 5,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, // N
		0x00, 0x7f, 0x80, 0x01, 0x80, 0x80, 0x01,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	got, err := tab.AppendBinary([]byte("prefix"))
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendBinary = % x, %v; want prefix + % x", got, err, want)
	}
	// Long runs of one-byte cells broken by wider ones, against the
	// field-at-a-time reference encoding.
	tab = deltaTable(1000)
	for i, row := 0, tab.Row(0); i < len(row); i++ {
		row[i] = int64(i % 101) // every one-byte value the route allows
	}
	tab.Cells[4], tab.N = tab.Cells[4]+200, tab.N+200 // route 4 takes 304 reports
	tab.Row(4)[500], tab.Row(4)[999] = 127, 250
	ref := []byte{tableTag, 0}
	for _, v := range []int64{int64(tab.Routes), int64(tab.Rows), int64(tab.Cols), tab.N} {
		ref = binary.AppendUvarint(ref, uint64(v))
	}
	for _, c := range tab.Cells {
		ref = binary.AppendUvarint(ref, uint64(c))
	}
	if got := mustMarshal(t, tab); !bytes.Equal(got, ref) {
		t.Fatal("MarshalBinary departs from the field-at-a-time encoding")
	}
	if got, err := DecodeTable(ref); err != nil || !reflect.DeepEqual(got, tab) {
		t.Fatalf("the field-at-a-time encoding decodes to another table: %v", err)
	}
	if env := AppendTable([]byte("x"), "fp", &tab); !bytes.Equal(env, append([]byte("x"), Encode("fp", ref)...)) {
		t.Fatal("AppendTable departs from Encode of the table's bytes")
	}
}

// TestDecodeTableIntoReuses: decoding into a table that holds another
// table's cells yields exactly DecodeTable's table, reusing the cells when
// they are large enough, and a decode into fresh cells allocates once.
func TestDecodeTableIntoReuses(t *testing.T) {
	tab := deltaTable(1000)
	blob := mustMarshal(t, tab)
	want, err := DecodeTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	big := NewTable(Shape{Rows: 3, Cols: 5000})
	for i := range big.Cells {
		big.Cells[i] = -1
	}
	backing := &big.Cells[0]
	if err := DecodeTableInto(&big, blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(big, want) || &big.Cells[0] != backing {
		t.Fatalf("decode into a dirty table: %v %d cells (reused %v), want %v", big.Shape, len(big.Cells), &big.Cells[0] == backing, want.Shape)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := DecodeTableInto(&big, blob); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a decode into cells that fit allocated %v times", allocs)
	}
	small := Table{Cells: make([]int64, 3)}
	if err := DecodeTableInto(&small, blob); err != nil || !reflect.DeepEqual(small, want) {
		t.Fatalf("decode into short cells: %v", err)
	}
}

// decodeFieldwise is the reference the codec is fuzzed against: the
// encoding read one field at a time, then Table.Check.
func decodeFieldwise(data []byte) (Table, error) {
	if len(data) == 0 || data[0] != tableTag {
		return Table{}, errors.New("not a table")
	}
	data = data[1:]
	next := func() (int64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 || n > 1 && data[n-1] == 0 || v > math.MaxInt64 {
			return 0, false
		}
		data = data[n:]
		return int64(v), true
	}
	var head [5]int64
	for i := range head {
		var ok bool
		if head[i], ok = next(); !ok {
			return Table{}, errors.New("bad header")
		}
	}
	oneHot, routes, rows, cols, left := head[0], head[1], head[2], head[3], int64(len(data))
	if oneHot > 1 || routes != 0 && routes != rows || rows > left || cols > left || routes+rows*cols > left {
		return Table{}, errors.New("bad shape")
	}
	tab := NewTable(Shape{Routes: int(routes), Rows: int(rows), Cols: int(cols), OneHot: oneHot == 1})
	tab.N = head[4]
	for i := range tab.Cells {
		var ok bool
		if tab.Cells[i], ok = next(); !ok {
			return Table{}, errors.New("bad cell")
		}
	}
	if len(data) != 0 {
		return Table{}, errors.New("trailing bytes")
	}
	return tab, tab.Check()
}

func tablesEqual(a, b Table) bool {
	return a.Shape == b.Shape && a.N == b.N && slices.Equal(a.Cells, b.Cells)
}

// checkedAddSeeds are tables, most of them one cell from valid, at the
// edges of CheckTable's word at a time walk.
func checkedAddSeeds() []Table {
	var seeds []Table
	// A two-byte cell across the first word of the cells.
	straddle := NewTable(Shape{Rows: 1, Cols: 16})
	straddle.N = 300
	for i := range straddle.Cells {
		straddle.Cells[i] = 1
	}
	straddle.Cells[7] = 300
	seeds = append(seeds, straddle)
	// A cell one above its route, in each lane of a word.
	for lane := 0; lane < 8; lane++ {
		tab := NewTable(Shape{Routes: 2, Rows: 2, Cols: 9})
		tab.N, tab.Cells[0], tab.Cells[1] = 30, 10, 20
		tab.Row(0)[lane] = 11
		seeds = append(seeds, tab)
	}
	// Routes at the one-byte cell's bound, each row filled with 127s (126
	// is one short of holding them) and a row of 126s.
	for _, route := range []int64{126, 127, 128} {
		tab := NewTable(Shape{Routes: 1, Rows: 1, Cols: 8})
		tab.N, tab.Cells[0] = route, route
		for i := range tab.Row(0) {
			tab.Row(0)[i] = 127
		}
		seeds = append(seeds, tab)
	}
	fits := NewTable(Shape{Routes: 1, Rows: 1, Cols: 8})
	fits.N, fits.Cells[0] = 126, 126
	for i := range fits.Row(0) {
		fits.Row(0)[i] = 126
	}
	seeds = append(seeds, fits)
	// Rows of five cells, so a word of cells spans two rows whose routes
	// differ: valid, then the short route's last cell one too many.
	for _, last := range []int64{3, 4} {
		tab := NewTable(Shape{Routes: 2, Rows: 2, Cols: 5})
		tab.N, tab.Cells[0], tab.Cells[1] = 103, 3, 100
		copy(tab.Cells[2:], []int64{0, 1, 2, 3, last, 100, 99, 50, 7, 100})
		seeds = append(seeds, tab)
	}
	// A one-hot row one report short of its route.
	short := NewTable(Shape{Routes: 2, Rows: 2, Cols: 8, OneHot: true})
	short.N, short.Cells[0], short.Cells[1] = 25, 10, 15
	copy(short.Row(0), []int64{1, 1, 1, 1, 1, 1, 1, 2})
	copy(short.Row(1), []int64{0, 0, 0, 15, 0, 0, 0, 0})
	seeds = append(seeds, short)
	// Two-byte cells, four to a word: one above its route in each lane,
	// then routes at the two-byte cell's bound, filled with 16,383s.
	for lane := 0; lane < 4; lane++ {
		tab := NewTable(Shape{Routes: 2, Rows: 2, Cols: 8})
		tab.N, tab.Cells[0], tab.Cells[1] = 20300, 300, 20000
		for i := range tab.Cells[2:] {
			tab.Cells[2+i] = 128 + int64(i)
		}
		tab.Row(0)[lane] = 301
		seeds = append(seeds, tab)
	}
	for _, route := range []int64{16382, 16383, 16384} {
		tab := NewTable(Shape{Rows: 1, Cols: 4})
		tab.N = route
		for i := range tab.Cells {
			tab.Cells[i] = 16383
		}
		seeds = append(seeds, tab)
	}
	// One-hot rows of two-byte cells: exact, then one short.
	for _, last := range []int64{250, 249} {
		tab := NewTable(Shape{Routes: 1, Rows: 1, Cols: 4, OneHot: true})
		tab.N, tab.Cells[0] = 1000, 1000
		copy(tab.Row(0), []int64{250, 250, 250, last})
		seeds = append(seeds, tab)
	}
	// A report count that no non-empty table can take on.
	full := NewTable(Shape{Rows: 1, Cols: 8})
	full.N = math.MaxInt64
	for i := range full.Cells {
		full.Cells[i] = int64(i)
	}
	return append(seeds, full)
}

// FuzzDecodeTable: on any input, DecodeTable, DecodeTableInto into a
// dirty, reused table and CheckTable accept exactly what the field at a
// time reference accepts; DecodeTableInto yields DecodeTable's table and
// leaves its destination untouched when it refuses; every accepted input
// re-encodes to itself through AppendBinary; and MergeChecked of the
// checked input into a table already holding counts equals Merge of the
// decoded table, leaving the table bit-identical when it refuses.
func FuzzDecodeTable(f *testing.F) {
	onehot := NewTable(Shape{Routes: 2, Rows: 2, Cols: 2, OneHot: true})
	onehot.N = 5
	copy(onehot.Cells, []int64{2, 3, 1, 1, 0, 3})
	wide := NewTable(Shape{Rows: 1, Cols: 3})
	wide.N = math.MaxInt64
	copy(wide.Cells, []int64{128, 1 << 14, math.MaxInt64})
	// Small seeds: the fuzzer minimizes every new input it finds.
	for _, tab := range []Table{deltaTable(6), onehot, wide, NewTable(Shape{})} {
		f.Add(mustMarshal(f, tab))
	}
	f.Add([]byte{tableTag, 0, 0, 1, 9, 0x80, 0x01, 0x80, 0x01, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("not a table"))
	for _, tab := range checkedAddSeeds() {
		f.Add(mustMarshal(f, tab))
	}
	// Four two-byte cells in a word, the last a non-minimal zero.
	f.Add([]byte{tableTag, 0, 0, 1, 4, 0xac, 0x02, 0x80, 0x01, 0x80, 0x01, 0x80, 0x01, 0x80, 0x00})
	// Cells of two to nine bytes with eight or more bytes behind them,
	// then non-minimal two-, three- and four-byte zeros.
	long := NewTable(Shape{Rows: 1, Cols: 9})
	long.N = math.MaxInt64
	copy(long.Cells, []int64{1 << 14, 1<<21 - 1, 1<<14 - 1, 5, 1 << 21, 1 << 49, 1<<56 - 1, 1 << 56, 1})
	f.Add(mustMarshal(f, long))
	f.Add([]byte{tableTag, 0, 0, 1, 10, 0xac, 0x02, 0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{tableTag, 0, 0, 1, 10, 0xac, 0x02, 0x80, 0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{tableTag, 0, 0, 1, 10, 0xac, 0x02, 0x80, 0x80, 0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	reused := deltaTable(20)
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, rerr := decodeFieldwise(data)
		want, werr := DecodeTable(data)
		checked, cerr := CheckTable(data)
		if (rerr == nil) != (werr == nil) || (werr == nil) != (cerr == nil) {
			t.Fatalf("reference err %v, DecodeTable err %v, CheckTable err %v", rerr, werr, cerr)
		}
		// Dirty the reused table so stale cells cannot pass for decoded ones.
		for i := range reused.Cells {
			reused.Cells[i] = -7
		}
		reused.Shape, reused.N = Shape{Routes: 1, Rows: 1, Cols: 1}, -1
		dirty := reused.Clone()
		if err := DecodeTableInto(&reused, data); (err == nil) != (werr == nil) {
			t.Fatalf("DecodeTable err %v, DecodeTableInto err %v", werr, err)
		} else if err != nil && !tablesEqual(reused, dirty) {
			t.Fatal("a refused DecodeTableInto changed its destination")
		}
		if werr != nil {
			return
		}
		if !tablesEqual(want, ref) {
			t.Fatalf("DecodeTable yields %v N=%d, the reference %v N=%d", want.Shape, want.N, ref.Shape, ref.N)
		}
		if !tablesEqual(reused, want) {
			t.Fatalf("DecodeTableInto yields %v N=%d, DecodeTable %v N=%d", reused.Shape, reused.N, want.Shape, want.N)
		}
		if got, _ := want.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted input re-encodes to % x, not % x", got, data)
		}
		if checked.Shape() != want.Shape || checked.N() != want.N {
			t.Fatalf("CheckTable vouches for %v N=%d, DecodeTable yields %v N=%d", checked.Shape(), checked.N(), want.Shape, want.N)
		}
		for _, pre := range []Table{want.Clone(), deltaTable(3)} {
			merged, added := pre.Clone(), pre.Clone()
			merr := merged.Merge(&want)
			if aerr := added.MergeChecked(checked); (merr == nil) != (aerr == nil) {
				t.Fatalf("Merge err %v, MergeChecked err %v", merr, aerr)
			} else if aerr != nil {
				if !tablesEqual(added, pre) {
					t.Fatal("a refused MergeChecked changed the table")
				}
			} else if !tablesEqual(added, merged) {
				t.Fatal("MergeChecked departs from Merge of the decoded table")
			}
		}
	})
}

// deltaTable is a one-frame delta of freq_bin_wal's shape at cols = 1,000:
// 510 reports routed over 5 labels, each row counting at most its route's
// reports in each of its cols cells, so every cell is a one-byte varint.
func deltaTable(cols int) Table {
	tab := NewTable(Shape{Routes: 5, Rows: 5, Cols: cols})
	r := uint64(1)
	for l := 0; l < 5; l++ {
		route := int64(100 + l)
		tab.Cells[l], tab.N = route, tab.N+route
		for i, row := 0, tab.Row(l); i < len(row); i++ {
			r = r*6364136223846793005 + 1442695040888963407
			row[i] = int64(r>>33) % (route/4 + 1)
		}
	}
	return tab
}

// BenchmarkTableCodec is the delta's codec, one table per op: the append a
// logged write pays, the decode into reused cells a restored snapshot pays,
// the merge under the tier's lock a write ends in, and the checked add
// straight from the bytes a replayed record or a /merge envelope pays.
func BenchmarkTableCodec(b *testing.B) {
	tab := deltaTable(1000)
	blob := mustMarshal(b, tab)
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, len(blob))
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for b.Loop() {
			buf, _ = tab.AppendBinary(buf[:0])
		}
	})
	b.Run("decode-into", func(b *testing.B) {
		var dst Table
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for b.Loop() {
			if err := DecodeTableInto(&dst, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		acc := NewTable(tab.Shape)
		b.ReportAllocs()
		for b.Loop() {
			if err := acc.Merge(&tab); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check+merge", func(b *testing.B) {
		acc := NewTable(tab.Shape)
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for b.Loop() {
			c, err := CheckTable(blob)
			if err != nil {
				b.Fatal(err)
			}
			if err := acc.MergeChecked(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}
