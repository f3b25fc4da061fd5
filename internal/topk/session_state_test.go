package topk

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/state"
	"repro/internal/xrand"
)

// sessionPayload plans a two-class fw session under opt, feeds it its users
// in order until stop of them have reported (or it has its result), and
// returns the gob payload of its marshaled record.
func sessionPayload(t testing.TB, fw string, opt Options, stop int) []byte {
	t.Helper()
	const seed = 77
	data := topkDataset(2, 128, 600, true, xrand.New(7))
	pl, err := NewSession(SessionParams{Framework: fw, Classes: 2, Items: 128, K: 2, Eps: 4,
		Users: data.N(), Seed: seed, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	for user := 0; !pl.Done() && user < stop; {
		cfg := pl.Config()
		enc, err := NewRoundEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ; pl.Received() < cfg.Quota && user < stop; user++ {
			rep, err := enc.Encode(data.Pairs[user], UserRand(seed, user))
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		if pl.Received() == cfg.Quota {
			if err := pl.Advance(); err != nil {
				t.Fatal(err)
			}
		}
	}
	blob, err := pl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func decodeRecord(t testing.TB, payload []byte) plannerState {
	t.Helper()
	var st plannerState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func encodeRecord(t testing.TB, st plannerState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return state.Encode(sessionFingerprint, buf.Bytes())
}

// TestImpossibleSessionStateRefused corrupts one field of a real mid-round
// pts+VP record at a time; restoring must refuse every count the session
// could not have reached.
func TestImpossibleSessionStateRefused(t *testing.T) {
	payload := sessionPayload(t, "pts", Optimized(), 50)
	if st := decodeRecord(t, payload); st.Round != 0 || st.Received != 50 || st.Aggs[0].Dropped == 0 {
		t.Fatalf("fixture is not mid-round with dropped reports: round %d, %d received, agg %+v",
			st.Round, st.Received, st.Aggs[0])
	}
	for _, tc := range []struct {
		name    string
		corrupt func(st *plannerState)
	}{
		{"negative bucket count", func(st *plannerState) { st.Aggs[0].Counts[0] = -1000 }},
		{"bucket count above N", func(st *plannerState) { st.Aggs[0].Counts[0] = 1 << 40 }},
		{"bucket count above kept", func(st *plannerState) { st.Aggs[0].Counts[0] = int64(st.Aggs[0].Kept) + 1 }},
		{"kept + dropped != N", func(st *plannerState) { st.Aggs[0].Kept++ }},
		{"sum of N != Received", func(st *plannerState) { st.Received = 123456 }},
		{"sum of LabelRouted != LabelTotal", func(st *plannerState) { st.LabelTotal++ }},
	} {
		st := decodeRecord(t, payload)
		tc.corrupt(&st)
		if _, err := UnmarshalSession(encodeRecord(t, st)); err == nil {
			t.Errorf("%s: record accepted", tc.name)
		}
	}
	if _, err := UnmarshalSession(encodeRecord(t, decodeRecord(t, payload))); err != nil {
		t.Fatalf("the uncorrupted record: %v", err)
	}
}

// FuzzUnmarshalSession feeds mutated session records to UnmarshalSession.
// The input is the record's gob payload, sealed into its envelope here so
// mutations reach the decoder past the CRC. A record it accepts must
// re-marshal to the same fields, and the restored planner must run to its
// result.
func FuzzUnmarshalSession(f *testing.F) {
	for _, fw := range []string{"hec", "ptj", "pts"} {
		for _, opt := range []Options{Baseline(), Optimized()} {
			for _, stop := range []int{450, 600} {
				payload := sessionPayload(f, fw, opt, stop)
				if _, err := UnmarshalSession(state.Encode(sessionFingerprint, payload)); err != nil {
					f.Fatalf("%s after %d users: %v", fw, stop, err)
				}
				f.Add(payload)
			}
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		pl, err := UnmarshalSession(state.Encode(sessionFingerprint, payload))
		if err != nil {
			return
		}
		blob, err := pl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		_, again, err := state.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := decodeRecord(t, again), decodeRecord(t, payload); !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted record re-marshals to\n%+v\nnot\n%+v", got, want)
		}
		for !pl.Done() {
			if err := pl.Advance(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
