package topk

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// FuzzTopKBinaryBatch throws arbitrary bytes at the session-tier binary
// frame path and pins its contract: a frame that peeks and validates
// cleanly absorbs exactly its declared count, every record it carries
// survives CheckReport when decoded, and absorbing those one by one leaves
// the same partial; a frame that fails anywhere — CRC,
// truncation, semantic corruption — absorbs nothing at all.
func FuzzTopKBinaryBatch(f *testing.F) {
	// One live layout per framework, covering single- and per-class
	// routing, the ptj class pin, and VP's flag bit.
	var layouts []*RoundLayout
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
		layouts = append(layouts, l)

		// Seed a real frame, a truncated cut of it, and a CRC-corrupted
		// copy, so the corpus starts on the interesting boundaries.
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
		f.Add(frame)
		f.Add(frame[:len(frame)*2/3])
		mangled := append([]byte(nil), frame...)
		mangled[len(mangled)/2] ^= 0x40
		f.Add(mangled)
	}
	f.Add([]byte("MCBW"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := PeekRoundFrame(data)
		if err != nil {
			return
		}
		for _, l := range layouts {
			part := NewRoundPartial(l)
			if err := part.AbsorbFrame(frame); err != nil {
				if part.Received() != 0 {
					t.Fatalf("rejected frame left %d reports absorbed", part.Received())
				}
				continue
			}
			if part.Received() != frame.Count {
				t.Fatalf("accepted frame absorbed %d reports, declared %d", part.Received(), frame.Count)
			}
			reps, err := DecodeRoundFrame(l, frame)
			if err != nil {
				t.Fatalf("absorbed frame does not decode: %v", err)
			}
			if len(reps) != frame.Count {
				t.Fatalf("decoded %d reports, declared %d", len(reps), frame.Count)
			}
			// Absorbing the decoded reports one by one both re-checks each
			// (CheckReport) and must leave the state the frame left.
			viaAbsorb := NewRoundPartial(l)
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
