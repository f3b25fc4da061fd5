package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/fo"
	"repro/internal/mean"
	"repro/internal/state"
)

// This file is the one-version read shim. Before report-tier state was a
// count table (state.Table), every aggregator wrote its own gob state; the
// checkpoints, WAL compaction snapshots, 'E' records and edge pushes of
// that version still restore, because the shim rebuilds from each gob state
// the table the same reports produce now, which is then validated like any
// other table. Nothing writes gob state any more.

// isGob tells a gob stream from a table by its first byte: gob opens a
// stream with a message length, one byte below 0x80 or a negated byte count
// from 0xf8 up, and a table opens with a tag in between.
func isGob(payload []byte) bool {
	return len(payload) > 0 && (payload[0] < 0x80 || payload[0] >= 0xf8)
}

// The gob states, matched by field name; fields the table does not need
// (mechanism names, budgets — the envelope fingerprint pins those) are
// skipped by the decoder.
type (
	gobCounts struct { // a GRR or UE accumulator
		Counts []int64
		N      int
	}
	gobOLH struct { // an OLH accumulator: every report it was fed
		Domain, G int
		Seeds     []uint64
		Buckets   []int32
	}
	gobHEC struct {
		Groups [][]byte
		Total  int
	}
	gobPTJ struct{ Joint []byte }
	gobPTS struct {
		LabelCounts []int64
		Routes      [][]byte
		Total       int
	}
	gobCP struct {
		ItemCounts  [][]int64
		LabelCounts []int64
		Total       int
	}
	gobMean struct { // Labels only for CP-Mean, which also counted ⊥ reports
		Plus, Minus, Labels []int64
		Total               int
	}
)

func gobDecode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("core: state from before count tables: %w", err)
	}
	return nil
}

// upgradeFrequencyState returns a payload p's aggregator can restore:
// payload itself when it is a table, else the table rebuilt from the gob
// state p's framework wrote before tables.
func upgradeFrequencyState(p *Protocol, payload []byte) ([]byte, error) {
	if !isGob(payload) {
		return payload, nil
	}
	var t state.Table
	var err error
	switch p.framework {
	case "hec":
		var st gobHEC
		if err = gobDecode(payload, &st); err == nil {
			t, err = legacyRoutes(p.table, p.item, st.Groups, st.Total)
		}
	case "ptj":
		var st gobPTJ
		if err = gobDecode(payload, &st); err == nil {
			t = state.NewTable(p.table)
			t.N, err = legacyRow(t.Row(0), p.item, st.Joint)
		}
	case "pts":
		var st gobPTS
		if err = gobDecode(payload, &st); err == nil {
			t, err = legacyRoutes(p.table, p.item, st.Routes, st.Total)
		}
		// Every report bumped its label's count and its route in lockstep.
		if err == nil && !slices.Equal(st.LabelCounts, t.Cells[:t.Routes]) {
			err = fmt.Errorf("core: pts state's label counts %v disagree with its routes %v", st.LabelCounts, t.Cells[:t.Routes])
		}
	default: // ptscp
		var st gobCP
		if err = gobDecode(payload, &st); err == nil {
			t, err = legacyCP(p.table, st)
		}
	}
	if err != nil {
		return nil, err
	}
	return t.MarshalBinary()
}

// legacyRoutes rebuilds a routed table (HEC's groups, PTS's labels) from
// one gob accumulator state per route.
func legacyRoutes(s state.Shape, mech fo.Mechanism, routes [][]byte, total int) (state.Table, error) {
	t := state.NewTable(s)
	if len(routes) != s.Rows {
		return t, fmt.Errorf("core: state has %d routes, want %d", len(routes), s.Rows)
	}
	t.N = int64(total)
	for r, blob := range routes {
		n, err := legacyRow(t.Row(r), mech, blob)
		if err != nil {
			return t, fmt.Errorf("core: route %d: %w", r, err)
		}
		t.Cells[r] = n
	}
	return t, nil
}

// legacyRow fills row from one gob accumulator state of mech and returns
// the reports it held. OLH kept every report; they are folded here, once.
func legacyRow(row []int64, mech fo.Mechanism, blob []byte) (int64, error) {
	if olh, ok := mech.(*fo.OLH); ok {
		var st gobOLH
		if err := gobDecode(blob, &st); err != nil {
			return 0, err
		}
		if st.Domain != len(row) || st.G != olh.G() || len(st.Seeds) != len(st.Buckets) {
			return 0, fmt.Errorf("core: OLH state (d=%d g=%d, %d seeds, %d buckets) does not match d=%d g=%d",
				st.Domain, st.G, len(st.Seeds), len(st.Buckets), len(row), olh.G())
		}
		for i, b := range st.Buckets {
			if b < 0 || int(b) >= st.G {
				return 0, fmt.Errorf("core: OLH state bucket %d outside [0,%d)", b, st.G)
			}
			fo.Fold(olh, row, fo.Report{Value: int(b), Seed: st.Seeds[i]})
		}
		return int64(len(st.Seeds)), nil
	}
	var st gobCounts
	if err := gobDecode(blob, &st); err != nil {
		return 0, err
	}
	if len(st.Counts) != len(row) {
		return 0, fmt.Errorf("core: state has %d counts, want %d", len(st.Counts), len(row))
	}
	copy(row, st.Counts)
	return int64(st.N), nil
}

// legacyCP rebuilds a PTS-CP table from the CPAccumulator gob state.
func legacyCP(s state.Shape, st gobCP) (state.Table, error) {
	t := state.NewTable(s)
	if len(st.LabelCounts) != s.Rows || len(st.ItemCounts) != s.Rows {
		return t, fmt.Errorf("core: CP state has %d/%d classes, want %d", len(st.LabelCounts), len(st.ItemCounts), s.Rows)
	}
	t.N = int64(st.Total)
	copy(t.Cells, st.LabelCounts)
	for c, counts := range st.ItemCounts {
		if len(counts) != s.Cols {
			return t, fmt.Errorf("core: CP state row %d has %d items, want %d", c, len(counts), s.Cols)
		}
		copy(t.Row(c), counts)
	}
	return t, nil
}

// upgradeMeanState is upgradeFrequencyState for the mean tier, whose gob
// states kept per-label sign counts (and, for CP-Mean, per-label report
// counts, the ⊥ reports being the difference).
func upgradeMeanState(p *NumericProtocol, payload []byte) ([]byte, error) {
	if !isGob(payload) {
		return payload, nil
	}
	var st gobMean
	if err := gobDecode(payload, &st); err != nil {
		return nil, err
	}
	c, sym := p.classes, p.halves.Symbols
	if len(st.Plus) != c || len(st.Minus) != c || sym > mean.Bottom && len(st.Labels) != c {
		return nil, fmt.Errorf("core: %s state has %d/%d/%d labels, want %d", p.name, len(st.Plus), len(st.Minus), len(st.Labels), c)
	}
	t := p.NewTable()
	t.N = int64(st.Total)
	cells := t.Row(0)
	for l := 0; l < c; l++ {
		cells[l*sym+mean.Minus], cells[l*sym+mean.Plus] = st.Minus[l], st.Plus[l]
		if sym > mean.Bottom {
			cells[l*sym+mean.Bottom] = st.Labels[l] - st.Plus[l] - st.Minus[l]
		}
	}
	return t.MarshalBinary()
}
