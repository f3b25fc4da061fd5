package topk

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// FuzzRoundWire drives both directions of the interactive-mining wire
// codec with arbitrary JSON. Client side: a round broadcast must validate
// structurally before a RoundEncoder trusts it — a malicious config must
// never panic the encoder or make it allocate beyond MaxWireDomain.
// Server side: an arbitrary report against a live planner must be cleanly
// accepted or rejected, never corrupt the round aggregate.
func FuzzRoundWire(f *testing.F) {
	// Seed with a real broadcast and a real report from every framework.
	for _, fw := range []string{"hec", "ptj", "pts"} {
		pl, err := NewSession(SessionParams{
			Framework: fw, Classes: 3, Items: 32, K: 2, Eps: 2, Users: 50, Seed: 4,
			Opt: Optimized(),
		})
		if err != nil {
			f.Fatal(err)
		}
		cfg := pl.Config()
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cfgJSON)
		enc, err := NewRoundEncoder(cfg)
		if err != nil {
			f.Fatal(err)
		}
		rep, err := enc.Encode(core.Pair{Class: 1, Item: 5}, xrand.New(9))
		if err != nil {
			f.Fatal(err)
		}
		repJSON, err := json.Marshal(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(repJSON)
	}
	f.Add([]byte(`{"framework":"pts","classes":1,"items":2,"round":0,"rounds":1,"quota":0,"eps":1,"eps_label":1,"spaces":[{"kind":"shuffle","domain":2,"pool":[0,1],"starts":[0,2]}]}`))
	f.Add([]byte(`{"kind":"prefix","domain":8,"total_bits":3,"length":9}`))
	f.Add([]byte(`{"round":0,"class":0,"bits":[0,0]}`))
	f.Add([]byte(`{`))

	// One live round layout per framework for the report direction;
	// CheckReport is read-only, so reuse across iterations is sound.
	var layouts []*RoundLayout
	for _, fw := range []string{"hec", "ptj", "pts"} {
		pl, err := NewSession(SessionParams{
			Framework: fw, Classes: 3, Items: 32, K: 2, Eps: 2, Users: 50, Seed: 4,
			Opt: Options{Shuffling: true, VP: true},
		})
		if err != nil {
			f.Fatal(err)
		}
		layout, _ := pl.Layout() // a fresh planner's first round is open
		layouts = append(layouts, layout)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg RoundConfig
		if err := json.Unmarshal(data, &cfg); err == nil {
			if enc, err := NewRoundEncoder(&cfg); err == nil {
				// An accepted broadcast must be answerable: encoding an
				// in-domain pair never panics and yields a report the
				// config's own round index stamps.
				rep, err := enc.Encode(core.Pair{Class: 0, Item: 0}, xrand.New(1))
				if err != nil {
					t.Fatalf("accepted config cannot encode: %v", err)
				}
				if rep.Round != cfg.Round {
					t.Fatalf("report round %d != config round %d", rep.Round, cfg.Round)
				}
			}
		}
		var rep RoundReport
		if err := json.Unmarshal(data, &rep); err == nil {
			for _, l := range layouts {
				_ = l.CheckReport(rep) // must not panic
			}
		}
	})
}
