package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// These tests are the mean frame's own cases, held to the per-report path
// the frame kernel replaced (codec.addFrame, conformance_test.go): every
// record materialized by DecodeBinaryMeanBatch, re-checked by
// DecodeMeanReport and folded by one Add.

// randomMeanWires draws n reports uniformly over the protocol's whole
// (label, symbol) domain, so multi-byte labels and every symbol appear.
func randomMeanWires(p *NumericProtocol, n int, r *xrand.Rand) []WireMeanReport {
	wires := make([]WireMeanReport, n)
	for i := range wires {
		wires[i] = WireMeanReport{Label: r.Intn(p.Classes()), Symbol: r.Intn(p.Symbols())}
	}
	return wires
}

// sameFloats compares float for float, NaN-safe.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// meanFrame hand-frames raw record bytes under a declared count.
func meanFrame(count int, records ...byte) []byte {
	return FinishBinaryFrame(append(appendBinaryHeader(nil, binaryTierMean, count), records...), 0)
}

// TestMeanFrameMalformedRecords pins what the walk rejects and the error it
// gives — texts and record indices as the per-report walk produced them —
// and the over-long varints that walk accepted.
func TestMeanFrameMalformedRecords(t *testing.T) {
	cp, pts := mustMeanCodec(t, "cpmean", 5), mustMeanCodec(t, "ptsmean", 200)
	overflow := append(bytes.Repeat([]byte{0xff}, 10), 0x02)
	for _, tc := range []struct {
		name  string
		k     meanCodec
		frame []byte
		want  string           // error text, or "" when the frame is accepted
		wires []WireMeanReport // the reports an accepted frame carries
	}{
		{"truncated label", cp, meanFrame(2, 1, 1, 0x80), "core: binary record 1: truncated label", nil},
		{"label varint overflows", cp, meanFrame(1, overflow...), "core: binary record 0: truncated label", nil},
		{"missing symbol", cp, meanFrame(2, 1, 1, 2), "core: binary record 1: truncated symbol", nil},
		{"truncated symbol", cp, meanFrame(2, 1, 1, 2, 0x80), "core: binary record 1: truncated symbol", nil},
		{"truncated symbol after a two-byte label", pts, meanFrame(1, 0x81, 0x01), "core: binary record 0: truncated symbol", nil},
		{"label == classes", cp, meanFrame(1, 5, 0), "core: binary record 0: cpmean label 5 outside [0,5)", nil},
		{"two-byte label == classes", pts, meanFrame(2, 0xc7, 0x01, 1, 0xc8, 0x01, 0), "core: binary record 1: ptsmean label 200 outside [0,200)", nil},
		{"label beyond int64", cp, meanFrame(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0), "core: binary record 0: cpmean label 9223372036854775808 outside [0,5)", nil},
		{"symbol == symbols", cp, meanFrame(2, 0, 0, 4, 3), "core: binary record 1: cpmean symbol 3 outside [0,3)", nil},
		{"sign protocol sent ⊥", pts, meanFrame(1, 7, 2), "core: binary record 0: ptsmean symbol 2 outside [0,2)", nil},
		{"label and symbol both out", cp, meanFrame(1, 9, 9), "core: binary record 0: cpmean label 9 outside [0,5)", nil},
		{"truncated symbol hides a bad label", cp, meanFrame(1, 9), "core: binary record 0: truncated symbol", nil},
		{"one trailing byte", cp, meanFrame(1, 0, 0, 0), "core: binary frame has 1 trailing record bytes", nil},
		{"count one above the records", cp, meanFrame(3, 0, 0, 1, 1), "core: binary record 2: truncated label", nil},
		{"count one below the records", cp, meanFrame(1, 0, 0, 1, 1), "core: binary frame has 2 trailing record bytes", nil},
		{"count beyond the record bytes", cp, meanFrame(5, 0, 0, 1, 1), "core: binary frame count 5 exceeds 4 record bytes", nil},
		{"over-long label", cp, meanFrame(2, 0x80, 0x00, 1, 4, 2), "", []WireMeanReport{{0, 1}, {4, 2}}},
		{"over-long symbol", cp, meanFrame(1, 2, 0x81, 0x00), "", []WireMeanReport{{2, 1}}},
		{"mixed label widths", pts, meanFrame(3, 0x7f, 1, 0x80, 0x01, 0, 0xc7, 0x01, 1), "", []WireMeanReport{{127, 1}, {128, 0}, {199, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg := tc.k.newAgg()
			applied, err := tc.k.apply(agg, tc.frame)
			if tc.want != "" {
				if err == nil || err.Error() != tc.want {
					t.Fatalf("error %v, want %q", err, tc.want)
				}
				if applied != 0 || agg.N() != 0 {
					t.Fatalf("rejected frame applied %d reports (N=%d)", applied, agg.N())
				}
				if _, derr := tc.k.unframe(tc.frame); derr == nil || derr.Error() != tc.want {
					t.Fatalf("decode error %v, want %q", derr, tc.want)
				}
				return
			}
			if err != nil || applied != len(tc.wires) {
				t.Fatalf("applied %d, %v; want %d reports", applied, err, len(tc.wires))
			}
			oracle := tc.k.newAgg()
			if got := tc.k.addFrame(t, oracle, tc.frame); !reflect.DeepEqual(got, tc.wires) {
				t.Fatalf("decoded %v, want %v", got, tc.wires)
			}
			tc.k.requireSame(t, tc.name, agg, oracle)
		})
	}
}

// TestCheckedMeanFrameIsAValue pins what carrying the counts by value buys:
// one checked frame applied to two aggregators fills both alike (and twice
// into one doubles it), and a frame validated but never applied leaves
// nothing behind for the next one — at a domain inside the inline cell
// table and at one beyond it.
func TestCheckedMeanFrameIsAValue(t *testing.T) {
	r := xrand.New(16)
	for _, classes := range []int{5, 200} {
		k := mustMeanCodec(t, "cpmean", classes)
		p := k.p.(*NumericProtocol)
		frameOf := func(n int) []byte {
			frame, err := p.AppendBinaryMeanBatch(nil, randomMeanWires(p, n, r))
			if err != nil {
				t.Fatal(err)
			}
			return frame
		}
		dropped, kept := frameOf(500), frameOf(300)
		if _, err := p.ValidateBinaryMeanBatch(dropped); err != nil {
			t.Fatal(err)
		}
		f, err := p.ValidateBinaryMeanBatch(kept)
		if err != nil || f.Count() != 300 {
			t.Fatalf("c=%d: validate: count %d, %v", classes, f.Count(), err)
		}
		a, b, once, twice := p.NewTable(), p.NewTable(), p.NewAggregator(), p.NewAggregator()
		p.FoldChecked(&a, f)
		p.FoldChecked(&b, f)
		p.FoldChecked(&b, f)
		k.addFrame(t, once, kept)
		k.addFrame(t, twice, kept)
		k.addFrame(t, twice, kept)
		k.requireSame(t, fmt.Sprintf("c=%d applied once", classes), p.halves.Aggregate(a), once)
		k.requireSame(t, fmt.Sprintf("c=%d applied twice", classes), p.halves.Aggregate(b), twice)

		other := mustNumeric(t, "cpmean", classes, 2, 0.5)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("c=%d: a frame checked by one protocol applied under another", classes)
				}
			}()
			tab := other.NewTable()
			other.FoldChecked(&tab, f)
		}()
	}
}
