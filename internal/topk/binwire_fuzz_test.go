package topk

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/xrand"
)

// FuzzTopKBinaryBatch throws arbitrary bytes at the session-tier binary
// frame path and pins its contract against a partial that already holds a
// valid frame, as a live round does: a frame that peeks and validates
// cleanly absorbs exactly its declared count, every record it carries
// survives CheckReport when decoded, and absorbing those one by one leaves
// the same partial; a frame that fails anywhere — CRC, truncation, semantic
// corruption, even on its last record after every other row was filed —
// leaves the partial bit-identical (labels, every space's cells and flag
// cell, N), and an empty pooled delta that rejected it folds the next frame
// exactly as a fresh one would.
func FuzzTopKBinaryBatch(f *testing.F) {
	// One live layout per framework, covering single- and per-class
	// routing, the ptj class pin, and VP's flag bit, each with a valid frame
	// and the partial that frame fills.
	type fixture struct {
		layout    *RoundLayout
		seed      RoundFrame
		prefilled *RoundPartial
	}
	var fixtures []fixture
	for _, fw := range []string{"hec", "ptj", "pts"} {
		pl, err := NewSession(SessionParams{
			Framework: fw, Classes: 3, Items: 32, K: 2, Eps: 2, Users: 50, Seed: 4,
			Opt: Options{Shuffling: true, VP: true},
		})
		if err != nil {
			f.Fatal(err)
		}
		l, ok := pl.Layout()
		if !ok {
			f.Fatal("fresh session has no layout")
		}
		enc, err := NewRoundEncoder(pl.Config())
		if err != nil {
			f.Fatal(err)
		}
		var reps []RoundReport
		for u := 0; u < 8; u++ {
			rep, err := enc.Encode(core.Pair{Class: u % 3, Item: u}, xrand.New(uint64(u)))
			if err != nil {
				f.Fatal(err)
			}
			reps = append(reps, rep)
		}
		frame, err := AppendRoundFrame(nil, "fuzz-session", l, reps)
		if err != nil {
			f.Fatal(err)
		}
		seed, err := PeekRoundFrame(frame)
		if err != nil {
			f.Fatal(err)
		}
		prefilled := NewRoundPartial(l)
		if err := prefilled.AbsorbFrame(seed); err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, fixture{l, seed, prefilled})

		// Seed the real frame, a truncated cut of it, a CRC-corrupted copy,
		// and three re-sealed frames that fail on their last record only:
		// stray bits in its last word, its vector cut one byte short, its
		// class out of range.
		f.Add(frame)
		f.Add(frame[:len(frame)*2/3])
		mangled := append([]byte(nil), frame...)
		mangled[len(mangled)/2] ^= 0x40
		f.Add(mangled)
		last := reps[len(reps)-1]
		end := len(frame) - 4 // the records end where the CRC starts
		lastRow := end - (l.Bits[l.aggIndex(last.Class)]+63)/64*8
		reseal := func(edit func(body []byte) []byte) {
			f.Add(core.FinishBinaryFrame(edit(append([]byte(nil), frame[:end]...)), 0))
		}
		reseal(func(body []byte) []byte { body[end-1] |= 0x80; return body })
		reseal(func(body []byte) []byte { return body[:end-1] })
		reseal(func(body []byte) []byte { body[lastRow-1] = byte(l.Classes); return body })
	}
	f.Add([]byte("MCBW"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := PeekRoundFrame(data)
		if err != nil {
			return
		}
		for _, fx := range fixtures {
			part := clonePartial(fx.prefilled)
			pooled := NewRoundPartial(fx.layout)
			err, pooledErr := part.AbsorbFrame(frame), pooled.AbsorbFrame(frame)
			if (err == nil) != (pooledErr == nil) {
				t.Fatalf("verdict depends on the partial's counts: %v vs %v", err, pooledErr)
			}
			if err != nil {
				if !reflect.DeepEqual(part, fx.prefilled) {
					t.Fatalf("rejected frame (%v) changed the partial: %+v, was %+v", err, part, fx.prefilled)
				}
				if !reflect.DeepEqual(pooled, NewRoundPartial(fx.layout)) {
					t.Fatalf("rejected frame left the empty delta at %+v", pooled)
				}
				if err := pooled.AbsorbFrame(fx.seed); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pooled, fx.prefilled) {
					t.Fatalf("delta reused after a rejection folded %+v, a fresh one %+v", pooled, fx.prefilled)
				}
				continue
			}
			if got, want := part.Received(), fx.prefilled.Received()+frame.Count; got != want {
				t.Fatalf("accepted frame left %d reports, want %d", got, want)
			}
			reps, err := DecodeRoundFrame(fx.layout, frame)
			if err != nil {
				t.Fatalf("absorbed frame does not decode: %v", err)
			}
			if len(reps) != frame.Count {
				t.Fatalf("decoded %d reports, declared %d", len(reps), frame.Count)
			}
			// Absorbing the decoded reports one by one both re-checks each
			// (CheckReport) and must leave the state the frame left.
			viaAbsorb := clonePartial(fx.prefilled)
			for i, rep := range reps {
				if err := viaAbsorb.Absorb(rep); err != nil {
					t.Fatalf("absorbed record %d fails CheckReport: %v", i, err)
				}
			}
			if !reflect.DeepEqual(part, viaAbsorb) {
				t.Fatalf("frame absorb left %+v, per-report Absorb %+v", part, viaAbsorb)
			}
		}
	})
}

// clonePartial returns a copy of p that shares only its layout.
func clonePartial(p *RoundPartial) *RoundPartial {
	c := &RoundPartial{layout: p.layout, spaces: make([]state.Table, len(p.spaces)), labels: p.labels.Clone()}
	for i := range p.spaces {
		c.spaces[i] = p.spaces[i].Clone()
	}
	return c
}
