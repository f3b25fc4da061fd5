package topk

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/state"
)

// This file is the binary wire codec for round-report batches — the session
// tier of the MCBW frame format (internal/core/binwire.go holds the
// frequency 'F' and mean 'M' tiers, and the envelope checks all three share)
// — and RoundPartial, the state.Tables a round's reports are counted into,
// whichever wire they came by. A frame carries one whole batch for one
// session round:
//
//	magic[4]="MCBW" version[u8] tier[u8]='T' sidLen[u8] sid[sidLen]
//	round[u32] count[u32] records... crc32c[u32]
//
// All integers are little-endian; the CRC (Castagnoli) covers every byte
// before it and is verified before a single record is parsed. Unlike the
// stateless frequency tier, a session frame is addressed: the session id and
// round index ride in the header, so a server answers staleness (410 with
// the live round) from a 20-byte peek without touching the records.
//
// Records are shape-dependent on the round's layout (both ends know it — the
// server from its planner, the client from the round broadcast): uvarint
// class (hec: the self-chosen group; pts: the perturbed label; ptj: always
// 0), then the report's bit vector packed as ceil(bitsLen/64) little-endian
// words, where bitsLen is the bucket count of the space that class lands in
// (plus the validity flag bit under VP). Record width therefore depends on
// the class read first — per-class spaces prune independently, so their
// bucket counts differ.
//
// Like the other binary tiers, a session frame is all-or-nothing: any
// invalid record (or a CRC/truncation failure) rejects the whole frame and
// nothing is absorbed. Frames only ever come from a layout-checked encoder,
// so an invalid record means corruption or misconfiguration, not one user's
// bad report.
//
// A frame is folded in one walk over its records (RoundPartial.AbsorbFrame):
// each record is checked, its row filed under its class, and under VP its
// flag bit read from the word the stray-bit check loads — a flagged row is
// only counted as dropped. Nothing is counted until the walk has passed the
// last record; then each class adds its label count, its space's N and
// flag cell, and one column sum over its kept rows. A server folds a frame
// so into a delta outside its session lock and merges the delta under it;
// WAL replay folds straight into the live round.

// roundTier is the MCBW tier byte of session round-report frames.
const roundTier = 'T'

const (
	// roundFrameFixedLen is magic + version + tier + sidLen + round + count:
	// everything in the header except the variable session id.
	roundFrameFixedLen = 4 + 1 + 1 + 1 + 4 + 4
	// roundMinFrameLen adds the shortest session id and the trailing CRC.
	roundMinFrameLen = roundFrameFixedLen + 1 + 4
)

// ---------------------------------------------------------------------------
// Round layout.
// ---------------------------------------------------------------------------

// RoundLayout is the wire shape of one round: everything needed to validate
// and decode that round's reports without holding the planner — so a server
// validates a batch, or folds a frame into a delta, against the immutable
// layout outside its session lock.
// Server-side it comes from Planner.Layout, client-side from LayoutOf over
// the round broadcast.
type RoundLayout struct {
	// Round is the round index reports must carry.
	Round int
	// Classes bounds the wire class (ptj reports must carry class 0).
	Classes int
	// PTJ marks the joint-domain framework (class is in the joint value).
	PTJ bool
	// Single routes every class into aggregate 0 (ptj, and the pts global
	// phase); otherwise class c lands in aggregate c.
	Single bool
	// VP marks validity perturbation: each aggregate's last wire bit is the
	// perturbed validity flag, and flagged reports are dropped.
	VP bool
	// Bits[i] is aggregate i's wire bit-vector length (buckets, plus the
	// flag bit under VP).
	Bits []int
}

// aggIndex maps a report's wire class to the aggregate it lands in.
func (l *RoundLayout) aggIndex(class int) int {
	if l.Single {
		return 0
	}
	return class
}

// CheckReport validates a report against the layout without mutating
// anything: round match (RoundMismatchError otherwise), class range and
// bit-vector shape. A report that passes is safe to absorb.
func (l *RoundLayout) CheckReport(rep RoundReport) error {
	if rep.Round != l.Round {
		return &RoundMismatchError{Got: rep.Round, Live: l.Round}
	}
	if l.PTJ {
		if rep.Class != 0 {
			return fmt.Errorf("topk: ptj report class %d, want 0 (class is in the joint value)", rep.Class)
		}
	} else if rep.Class < 0 || rep.Class >= l.Classes {
		return fmt.Errorf("topk: report class %d outside [0,%d)", rep.Class, l.Classes)
	}
	return validateBits(rep.Bits, l.Bits[l.aggIndex(rep.Class)])
}

// walk validates a frame against the layout record by record — round,
// class range, the ptj class pin, truncation, no stray bits beyond the
// aggregate's domain, no trailing bytes: every check CheckReport makes of a
// JSON report — so a frame that walks cleanly is always safe to count. When
// sets is non-nil the walk also files each record's row offset under its wire
// class, or under VP counts the row as dropped there when its flag bit (the
// last wire bit, in the word the stray-bit check loads) is set. It allocates
// nothing, and it counts nothing: that is the caller's, after a clean walk.
func (l *RoundLayout) walk(f RoundFrame, sets *bitvec.RowSets) error {
	if f.Round != l.Round {
		return &RoundMismatchError{Got: f.Round, Live: l.Round}
	}
	classes, vp := uint64(l.Classes), 0
	if l.PTJ {
		classes = 1
	}
	if l.VP {
		vp = 1
	}
	records, pos := f.records, 0
	for i := 0; i < f.Count; i++ {
		if pos >= len(records) {
			return fmt.Errorf("topk: binary record %d: truncated class", i)
		}
		class := uint64(records[pos])
		if class < 0x80 { // every class below 128 is one uvarint byte
			pos++
		} else {
			var n int
			if class, n = binary.Uvarint(records[pos:]); n <= 0 {
				return fmt.Errorf("topk: binary record %d: truncated class", i)
			}
			pos += n
		}
		if class >= classes {
			if l.PTJ {
				return fmt.Errorf("topk: binary record %d: ptj class %d, want 0", i, class)
			}
			return fmt.Errorf("topk: binary record %d: class %d outside [0,%d)", i, class, l.Classes)
		}
		bitsLen := uint(l.Bits[l.aggIndex(int(class))])
		nw := int((bitsLen + 63) / 64)
		if len(records)-pos < nw*8 {
			return fmt.Errorf("topk: binary record %d: truncated %d-bit vector", i, bitsLen)
		}
		last := binary.LittleEndian.Uint64(records[pos+(nw-1)*8:])
		if rem := bitsLen % 64; rem != 0 && last>>rem != 0 {
			return fmt.Errorf("topk: binary record %d: stray bits beyond the %d-bit domain", i, bitsLen)
		}
		if sets != nil {
			sets.Add(int(class), pos, int(last>>((bitsLen-1)%64)&1)&vp)
		}
		pos += nw * 8
	}
	if pos != len(records) {
		return fmt.Errorf("topk: binary frame has %d trailing record bytes", len(records)-pos)
	}
	return nil
}

// Layout returns the live round's wire shape, or false once the session is
// done. The planner builds it once per round and never writes it again, so
// the pointer may be shared across goroutines and identifies the round:
// while Layout returns the same pointer, the round has not sealed.
func (pl *Planner) Layout() (*RoundLayout, bool) {
	if pl.done {
		return nil, false
	}
	return pl.layout, true
}

// LayoutOf derives the round's wire shape from its broadcast — the client
// half of Planner.Layout. It checks only what the layout depends on (the
// framework's space count and each space's bucket count); full broadcast
// validation is NewRoundEncoder's job, which binary submitters have already
// run to produce reports in the first place.
func LayoutOf(cfg *RoundConfig) (*RoundLayout, error) {
	if cfg == nil {
		return nil, fmt.Errorf("topk: nil round config")
	}
	fw, err := canonicalFramework(cfg.Framework)
	if err != nil {
		return nil, err
	}
	if cfg.Classes < 1 {
		return nil, fmt.Errorf("topk: round config with %d classes", cfg.Classes)
	}
	single := fw == "ptj" || (fw == "pts" && cfg.Global)
	wantSpaces := cfg.Classes
	if single {
		wantSpaces = 1
	}
	if len(cfg.Spaces) != wantSpaces {
		return nil, fmt.Errorf("topk: %s round carries %d spaces, want %d", fw, len(cfg.Spaces), wantSpaces)
	}
	l := &RoundLayout{
		Round:   cfg.Round,
		Classes: cfg.Classes,
		PTJ:     fw == "ptj",
		Single:  single,
		VP:      cfg.VP,
		Bits:    make([]int, len(cfg.Spaces)),
	}
	for i := range cfg.Spaces {
		b := cfg.Spaces[i].Buckets()
		if b < 1 {
			return nil, fmt.Errorf("topk: space %d lays out %d buckets", i, b)
		}
		if cfg.VP {
			b++
		}
		l.Bits[i] = b
	}
	return l, nil
}

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

// RoundFrame is a peeked session frame: the addressing header plus the
// still-encoded record region. The fields alias the frame bytes; they are
// valid only as long as the underlying buffer is.
type RoundFrame struct {
	// SID is the session id the frame addresses.
	SID []byte
	// Round is the round index every record answers.
	Round int
	// Count is the declared record count.
	Count int

	records []byte
}

// AppendRoundFrame appends one session frame carrying reps to dst and
// returns the extended slice. Reports are validated against the layout
// (exactly like CheckReport), so a frame this returns is always accepted by
// the matching Validate; each must carry the layout's round.
func AppendRoundFrame(dst []byte, sid string, l *RoundLayout, reps []RoundReport) ([]byte, error) {
	if len(sid) < 1 || len(sid) > 255 {
		return nil, fmt.Errorf("topk: session id length %d outside [1,255]", len(sid))
	}
	off := len(dst)
	dst = append(core.AppendBinaryFrameHeader(dst, roundTier), byte(len(sid)))
	dst = append(dst, sid...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(l.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reps)))
	for i, rep := range reps {
		if err := l.CheckReport(rep); err != nil {
			return nil, fmt.Errorf("topk: report %d: %w", i, err)
		}
		dst = binary.AppendUvarint(dst, uint64(rep.Class))
		nw := (l.Bits[l.aggIndex(rep.Class)] + 63) / 64
		base := len(dst)
		dst = core.AppendZeros(dst, nw*8)
		for _, b := range rep.Bits {
			dst[base+(b>>3)] |= 1 << (uint(b) & 7)
		}
	}
	return core.FinishBinaryFrame(dst, off), nil
}

// PeekRoundFrame checks a frame's CRC and header and returns the addressed
// session, round, declared count and record region — without decoding a
// single record, which is what lets a server answer staleness before paying
// for the records. It never panics: corrupted, truncated or mis-tiered
// inputs come back as errors.
func PeekRoundFrame(data []byte) (RoundFrame, error) {
	rest, err := core.OpenBinaryFrame(data, roundTier, roundMinFrameLen)
	if err != nil {
		return RoundFrame{}, fmt.Errorf("topk: %w", err)
	}
	sidLen := int(rest[0])
	if sidLen < 1 {
		return RoundFrame{}, fmt.Errorf("topk: binary frame with an empty session id")
	}
	if len(rest) < 1+sidLen+8 {
		return RoundFrame{}, fmt.Errorf("topk: binary frame truncated inside its header")
	}
	f := RoundFrame{
		SID:     rest[1 : 1+sidLen],
		Round:   int(binary.LittleEndian.Uint32(rest[1+sidLen:])),
		Count:   int(binary.LittleEndian.Uint32(rest[1+sidLen+4:])),
		records: rest[1+sidLen+8:],
	}
	// Every record costs at least one byte, so a count beyond the record
	// bytes is structurally impossible — catch it before any walk does.
	if uint64(f.Count) > uint64(len(f.records)) {
		return RoundFrame{}, fmt.Errorf("topk: binary frame count %d exceeds %d record bytes", f.Count, len(f.records))
	}
	return f, nil
}

// Validate checks the frame's records end to end against the layout without
// counting anything; a frame it accepts absorbs cleanly. A frame for another
// round fails with RoundMismatchError, same as CheckReport.
func (f RoundFrame) Validate(l *RoundLayout) error { return l.walk(f, nil) }

// DecodeRoundFrame materializes every report of a validated frame — the
// binary analogue of unmarshalling a JSON batch body. The hot ingest path
// absorbs the packed rows directly instead; this is for tools and tests.
func DecodeRoundFrame(l *RoundLayout, f RoundFrame) ([]RoundReport, error) {
	if err := f.Validate(l); err != nil {
		return nil, err
	}
	out := make([]RoundReport, 0, f.Count)
	for pos, i := 0, 0; i < f.Count; i++ {
		class, n := binary.Uvarint(f.records[pos:])
		pos += n
		nw := (l.Bits[l.aggIndex(int(class))] + 63) / 64
		out = append(out, RoundReport{Round: f.Round, Class: int(class),
			Bits: bitvec.AppendSetBits(nil, f.records[pos:], nw)})
		pos += nw * 8
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// The round aggregate.
// ---------------------------------------------------------------------------

// RoundPartial is the aggregate of one round: everything a report mutates,
// held as count tables. A Planner holds one as its live round — every
// report, JSON or binary, served or replayed, is counted there — and a
// free-standing one counts a share of a round somewhere else (an edge
// collector, a benchmark rung, a test's shard) until Planner.MergePartial
// folds it in. All of it is integer addition, so absorbing a round's reports
// across any number of partials in any order merges to the same planner
// state as absorbing them sequentially — bit-identically.
//
// A RoundPartial is not safe for concurrent use.
type RoundPartial struct {
	layout *RoundLayout
	// spaces[i] counts the reports routed to candidate space i in one row
	// laid out like their wire bits: the raw per-bucket support counts, which
	// rank identically to calibrated estimates within a round because the
	// calibration is a shared affine map, then under VP the flag cell. A
	// report whose perturbed flag bit is set adds to the flag cell alone
	// (Theorem 5's drop rule), so the cell counts dropped reports and the
	// space kept N minus it.
	spaces []state.Table
	// labels counts the reports by wire class, one-hot. Only a pts planner
	// reads them (the wire class is the perturbed label only there), but
	// they are counted for every framework, which keeps the absorb path
	// branch-free on it.
	labels state.Table
}

// NewRoundPartial prepares an empty partial for one round's layout.
func NewRoundPartial(l *RoundLayout) *RoundPartial {
	p := &RoundPartial{
		layout: l,
		spaces: make([]state.Table, len(l.Bits)),
		labels: state.NewTable(labelShape(l.Classes)),
	}
	for i, b := range l.Bits {
		p.spaces[i] = state.NewTable(state.Shape{Rows: 1, Cols: b})
	}
	return p
}

// Layout returns the round layout the partial counts.
func (p *RoundPartial) Layout() *RoundLayout { return p.layout }

// Received returns how many reports the partial currently holds.
func (p *RoundPartial) Received() (n int) {
	for i := range p.spaces {
		n += int(p.spaces[i].N)
	}
	return n
}

// buckets returns space i's per-bucket counts; the slice aliases the table.
func (p *RoundPartial) buckets(i int) []int64 {
	cells := p.spaces[i].Cells
	if p.layout.VP {
		return cells[:len(cells)-1]
	}
	return cells
}

// scores returns space i's per-bucket pruning criterion.
func (p *RoundPartial) scores(i int) []float64 {
	counts := p.buckets(i)
	out := make([]float64, len(counts))
	for b, c := range counts {
		out[b] = float64(c)
	}
	return out
}

// Absorb folds one JSON-path report into the partial, validating it against
// the layout first (CheckReport).
func (p *RoundPartial) Absorb(rep RoundReport) error {
	if err := p.layout.CheckReport(rep); err != nil {
		return err
	}
	p.labels.N++
	p.labels.Cells[rep.Class]++
	sp := &p.spaces[p.layout.aggIndex(rep.Class)]
	sp.N++
	if flag := len(sp.Cells) - 1; p.layout.VP && slices.Contains(rep.Bits, flag) {
		sp.Cells[flag]++
		return nil
	}
	for _, b := range rep.Bits {
		sp.Cells[b]++
	}
	return nil
}

// AbsorbFrame validates a frame against the partial's layout and folds it
// in — the binary twin of Absorb, so mixed JSON and binary traffic lands in
// the same counts. One walk validates every record and files its row under
// its wire class. The frame is all-or-nothing: only once the last record
// has passed does each class count its label, its space's N and VP flag
// cell (its dropped rows) and one column sum over its kept rows, so an
// invalid frame returns an error with the partial untouched.
func (p *RoundPartial) AbsorbFrame(f RoundFrame) error {
	l := p.layout
	sets := bitvec.GetRowSets(l.Classes)
	defer sets.Put()
	if err := l.walk(f, sets); err != nil {
		return err
	}
	for class, kept := range sets.Rows() {
		dropped, agg := sets.Dropped(class), l.aggIndex(class)
		n := int64(len(kept) + dropped)
		sp := &p.spaces[agg]
		p.labels.Cells[class] += n
		sp.N += n
		sp.Cells[len(sp.Cells)-1] += int64(dropped) // the flag cell; 0 without VP
		// Safe: the walk rejected stray bits beyond the wire length, so every
		// set bit indexes a cell, and a kept row adds nothing to the flag.
		bitvec.AddRows(sp.Cells, f.records, kept, (l.Bits[agg]+63)/64)
	}
	p.labels.N += int64(f.Count)
	return nil
}

// merge adds o's tables into p's. The two need not share a layout pointer
// (a partial built over LayoutOf a broadcast merges into the planner's own),
// only its shape, which is checked before anything is added.
func (p *RoundPartial) merge(o *RoundPartial) error {
	same := len(o.spaces) == len(p.spaces) && o.labels.Shape == p.labels.Shape
	for i := 0; same && i < len(o.spaces); i++ {
		same = o.spaces[i].Shape == p.spaces[i].Shape
	}
	if !same {
		return fmt.Errorf("topk: partial of %d spaces over %v does not match the live round's %d over %v",
			len(o.spaces), o.labels.Shape, len(p.spaces), p.labels.Shape)
	}
	for i := range o.spaces {
		if err := p.spaces[i].Merge(&o.spaces[i]); err != nil {
			return err
		}
	}
	return p.labels.Merge(&o.labels)
}

// MergePartial drains a partial into the live round: its tables add in and
// the partial is emptied in place, so a pooled one is reused without
// allocating. Merging the partials of a round in any order yields the same
// planner state as absorbing their reports sequentially. An empty partial
// merges into any round (a no-op); a non-empty one must match the live
// round.
func (pl *Planner) MergePartial(p *RoundPartial) error {
	n := p.Received()
	if n == 0 {
		return nil
	}
	if pl.done || p.layout.Round != pl.round {
		return fmt.Errorf("topk: merge of %d round-%d reports into live round %d", n, p.layout.Round, pl.round)
	}
	if err := pl.live.merge(p); err != nil {
		return err
	}
	for i := range p.spaces {
		clear(p.spaces[i].Cells)
		p.spaces[i].N = 0
	}
	clear(p.labels.Cells)
	p.labels.N = 0
	return nil
}

// AbsorbRoundFrame validates a frame against the live round and folds every
// record of it straight into the round's aggregate — what WAL replay of a
// raw frame record does. All-or-nothing like AbsorbFrame: validation runs
// first, so an invalid frame leaves the round untouched. The quota is
// advisory, exactly as in Absorb.
func (pl *Planner) AbsorbRoundFrame(f RoundFrame) error {
	if pl.done {
		return ErrSessionDone
	}
	return pl.live.AbsorbFrame(f)
}
