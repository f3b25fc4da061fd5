package state

import (
	"bytes"
	"testing"
)

func mustMarshal(t *testing.T, tab Table) []byte {
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
