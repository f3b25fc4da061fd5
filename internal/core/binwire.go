package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/fo"
	"repro/internal/mean"
	"repro/internal/state"
)

// This file is the binary wire codec for report batches — the
// high-throughput alternative to the JSON-array/NDJSON encodings. A frame
// carries one whole batch:
//
//	magic[4]="MCBW" version[u8] tier[u8] count[u32] records... crc32c[u32]
//
// All integers are little-endian; the CRC (Castagnoli, hardware-accelerated
// like the state-envelope and WAL checksums) covers every byte before it
// and is verified before a single record is parsed. tier is 'F' for
// frequency WirePayloads and 'M' for mean WireMeanReports, so a frame
// posted to the wrong tier's endpoint fails loudly instead of misparsing.
//
// Records are shape-dependent — both ends know the protocol (the server
// from its construction, the client from /config), so no per-record tags
// are spent:
//
//   - bit-vector reports (OUE/SUE, PTS-CP): uvarint label, then the bit
//     vector packed as ceil(bitsLen/64) little-endian words. Fixed-size and
//     zero-parse: the server sums a frame's vectors by column, in place,
//     straight into its count table (bitvec.AddRows).
//   - value reports (GRR): uvarint label, uvarint value.
//   - seeded value reports (OLH): uvarint label, uvarint value, seed[u64].
//   - mean reports: uvarint label, uvarint symbol.
//
// Unlike the JSON batch path, a binary frame is all-or-nothing: any invalid
// record (or a CRC/truncation failure) rejects the whole frame and nothing
// is applied. A frame only ever comes from a protocol-checked encoder, so
// an invalid record means corruption or misconfiguration, not one user's
// bad report.

// BinaryWireVersion is the frame format version written by the Append*
// encoders; decoding rejects any other version.
const BinaryWireVersion = 1

const (
	binaryTierFrequency = 'F'
	binaryTierMean      = 'M'

	// binaryHeaderLen is magic + version + tier + count.
	binaryHeaderLen = 4 + 1 + 1 + 4
	// binaryMinFrameLen adds the trailing CRC.
	binaryMinFrameLen = binaryHeaderLen + 4
)

// binaryMagic marks a byte slice as a binary report-batch frame. "MCBW":
// Multi-Class Binary Wire.
var binaryMagic = [4]byte{'M', 'C', 'B', 'W'}

// binaryCRC is the CRC-32C table shared with the state envelope and WAL.
var binaryCRC = crc32.MakeTable(crc32.Castagnoli)

// binaryZeros is the zero region AppendZeros copies from.
var binaryZeros [1024]byte

// AppendZeros appends n zero bytes — how the encoders reserve a packed bit
// vector before setting its bits, without allocating a scratch slice.
func AppendZeros(dst []byte, n int) []byte {
	for n > 0 {
		k := min(n, len(binaryZeros))
		dst = append(dst, binaryZeros[:k]...)
		n -= k
	}
	return dst
}

// AppendBinaryFrameHeader starts an MCBW frame of the given tier: magic,
// version, tier byte. The tier's own header fields follow. Exported with
// OpenBinaryFrame and FinishBinaryFrame for the session tier's codec
// (internal/topk/binwire.go), so the envelope is written once.
func AppendBinaryFrameHeader(dst []byte, tier byte) []byte {
	dst = append(dst, binaryMagic[:]...)
	return append(dst, BinaryWireVersion, tier)
}

// FinishBinaryFrame appends the CRC over the frame that started at off.
func FinishBinaryFrame(dst []byte, off int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[off:], binaryCRC))
}

// OpenBinaryFrame checks what every MCBW frame shares — length (minLen is
// the tier's shortest frame, CRC included), CRC, magic, version and tier —
// and returns the bytes between the tier byte and the CRC. It never panics:
// corrupted, truncated or mis-tiered inputs come back as errors before
// anything tier-specific is touched. The errors carry no package prefix;
// each tier's codec adds its own.
func OpenBinaryFrame(data []byte, tier byte, minLen int) ([]byte, error) {
	if len(data) < minLen {
		return nil, fmt.Errorf("binary frame truncated (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, binaryCRC), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, fmt.Errorf("binary frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	if [4]byte(body[:4]) != binaryMagic {
		return nil, fmt.Errorf("bad binary frame magic %q", body[:4])
	}
	if v := body[4]; v != BinaryWireVersion {
		return nil, fmt.Errorf("binary frame version %d, this build reads %d", v, BinaryWireVersion)
	}
	if t := body[5]; t != tier {
		return nil, fmt.Errorf("binary frame tier %q, want %q", t, tier)
	}
	return body[6:], nil
}

// appendBinaryHeader starts a frame for count records of the given tier.
func appendBinaryHeader(dst []byte, tier byte, count int) []byte {
	return binary.LittleEndian.AppendUint32(AppendBinaryFrameHeader(dst, tier), uint32(count))
}

// openBinaryFrame opens a report-tier frame and returns its record region
// and declared record count.
func openBinaryFrame(data []byte, tier byte) (records []byte, count int, err error) {
	rest, err := OpenBinaryFrame(data, tier, binaryMinFrameLen)
	if err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}
	records = rest[4:]
	n := binary.LittleEndian.Uint32(rest)
	// Every record costs at least one byte, so a count beyond the record
	// bytes is structurally impossible — catch it before the walk does.
	if uint64(n) > uint64(len(records)) {
		return nil, 0, fmt.Errorf("core: binary frame count %d exceeds %d record bytes", n, len(records))
	}
	return records, int(n), nil
}

// ---------------------------------------------------------------------------
// Frequency tier.
// ---------------------------------------------------------------------------

// AppendBinaryBatch appends one binary frame carrying wires to dst and
// returns the extended slice. Payloads are validated against the protocol's
// wire shape (exactly like DecodeReport would), so a frame this returns is
// always accepted by the matching decoder.
func (p *Protocol) AppendBinaryBatch(dst []byte, wires []WirePayload) ([]byte, error) {
	s := p.shape
	off := len(dst)
	dst = appendBinaryHeader(dst, binaryTierFrequency, len(wires))
	nw := (s.bitsLen + 63) / 64
	for i, w := range wires {
		if w.Label < 0 || w.Label >= s.classes {
			return nil, fmt.Errorf("core: %s report %d label %d outside [0,%d)", p.name, i, w.Label, s.classes)
		}
		dst = binary.AppendUvarint(dst, uint64(w.Label))
		if s.bitsLen > 0 {
			if w.Value != nil {
				return nil, fmt.Errorf("core: %s report %d carries a value, want a %d-bit vector", p.name, i, s.bitsLen)
			}
			base := len(dst)
			dst = AppendZeros(dst, nw*8)
			for _, b := range w.Bits {
				if b < 0 || b >= s.bitsLen {
					return nil, fmt.Errorf("core: %s report %d bit %d outside [0,%d)", p.name, i, b, s.bitsLen)
				}
				dst[base+(b>>3)] |= 1 << (uint(b) & 7)
			}
			continue
		}
		if w.Value == nil {
			return nil, fmt.Errorf("core: %s report %d missing value", p.name, i)
		}
		if len(w.Bits) > 0 {
			return nil, fmt.Errorf("core: %s report %d carries bits, want a bare value", p.name, i)
		}
		if *w.Value < 0 || *w.Value >= s.valueRange {
			return nil, fmt.Errorf("core: %s report %d value %d outside [0,%d)", p.name, i, *w.Value, s.valueRange)
		}
		dst = binary.AppendUvarint(dst, uint64(*w.Value))
		if s.seed {
			dst = binary.LittleEndian.AppendUint64(dst, w.Seed)
		} else if w.Seed != 0 {
			return nil, fmt.Errorf("core: %s report %d carries a hash seed, want none", p.name, i)
		}
	}
	return FinishBinaryFrame(dst, off), nil
}

// CheckedFrame is a binary frame a protocol's Validate… method has checked
// end to end — CRC, header, every record against the wire shape — which is
// what the protocol's FoldChecked needs to fold it with no failure path.
// Holding one is the proof, so a server validates each frame once. It
// aliases the frame's bytes and is valid only while they are unchanged.
//
// A bit-vector frame's check also files its rows by label (frameRows) and
// leaves the filing in a pool under the check's token; folding the frame
// takes the filing back when the pool still holds it, and files the rows
// again when it does not. Either way a frame may be folded any number of
// times, or dropped unfolded, at no cost.
//
// A mean frame's check is also its count: the value carries one counter per
// (label, symbol) cell — inline while classes × symbols fits, in a slice of
// its own beyond that. Applying only reads them, so a frame applied twice,
// copied or dropped unapplied disturbs nothing.
type CheckedFrame struct {
	owner   any // the protocol that checked it
	records []byte
	count   int
	token   uint64 // a bit-vector frame's filing; see frameRows
	inline  [checkedInlineCells]uint32
	spill   []uint32
}

// checkedInlineCells sizes the inline table: cpmean to 5 classes, the sign
// protocols to 8. Every frame of either tier is passed around with it, which
// is what keeps it this small. A frame's count is a u32, so no cell can
// overflow.
const checkedInlineCells = 16

// Count returns the number of reports the frame carries.
func (f CheckedFrame) Count() int { return f.count }

// meanCells returns the frame's cell counters, indexed label*symbols+symbol.
func (f *CheckedFrame) meanCells() []uint32 {
	if f.spill != nil {
		return f.spill
	}
	return f.inline[:]
}

// binaryRecord is one record handed to a frame walk: Bits is the offset, in
// the record region, of the packed bit vector of a bit-shaped protocol's
// report; Value and Seed belong to a value-shaped one.
type binaryRecord struct {
	Label int
	Value int
	Seed  uint64
	Bits  int
}

// walkBinaryRecords validates a frequency frame's record region record by
// record, calling visit (when non-nil) for each one. Every semantic check
// DecodeReport performs on a JSON payload happens here too — label range,
// value range, no stray bits beyond the domain — so a region that walks
// cleanly yields reports that are always safe to aggregate. When sets is
// non-nil the walk also files each bit vector's offset under its label, or,
// for PTS-CP, counts it as dropped there when its validity flag (bit d) is
// set — the VP drop rule. It allocates nothing, and it counts nothing: that
// is FoldChecked's, after a clean walk.
func (p *Protocol) walkBinaryRecords(rec []byte, count int, sets *bitvec.RowSets, visit func(binaryRecord)) error {
	s := p.shape
	nw := (s.bitsLen + 63) / 64
	flagByte, flagShift, vp := s.flag>>3, uint(s.flag)&7, 0
	if s.flag > 0 {
		vp = 1
	}
	pos := 0
	for i := 0; i < count; i++ {
		var label uint64
		if pos < len(rec) && rec[pos] < 0x80 { // every label below 128 is one uvarint byte
			label = uint64(rec[pos])
			pos++
		} else {
			var n int
			if label, n = binary.Uvarint(rec[pos:]); n <= 0 {
				return fmt.Errorf("core: binary record %d: truncated label", i)
			}
			pos += n
		}
		if label >= uint64(s.classes) {
			return fmt.Errorf("core: binary record %d: %s label %d outside [0,%d)", i, p.name, label, s.classes)
		}
		r := binaryRecord{Label: int(label)}
		if s.bitsLen > 0 {
			if len(rec)-pos < nw*8 {
				return fmt.Errorf("core: binary record %d: truncated %d-bit vector", i, s.bitsLen)
			}
			last := binary.LittleEndian.Uint64(rec[pos+(nw-1)*8:])
			if rem := uint(s.bitsLen) % 64; rem != 0 && last>>rem != 0 {
				return fmt.Errorf("core: binary record %d: stray bits beyond the %d-bit domain", i, s.bitsLen)
			}
			if sets != nil {
				sets.Add(int(label), pos, int(rec[pos+flagByte]>>flagShift&1)&vp)
			}
			r.Bits = pos
			pos += nw * 8
		} else {
			v, n := binary.Uvarint(rec[pos:])
			if n <= 0 {
				return fmt.Errorf("core: binary record %d: truncated value", i)
			}
			pos += n
			if v >= uint64(s.valueRange) {
				return fmt.Errorf("core: binary record %d: %s value %d outside [0,%d)", i, p.name, v, s.valueRange)
			}
			r.Value = int(v)
			if s.seed {
				if len(rec)-pos < 8 {
					return fmt.Errorf("core: binary record %d: truncated hash seed", i)
				}
				r.Seed = binary.LittleEndian.Uint64(rec[pos:])
				pos += 8
			}
		}
		if visit != nil {
			visit(r)
		}
	}
	if pos != len(rec) {
		return fmt.Errorf("core: binary frame has %d trailing record bytes", len(rec)-pos)
	}
	return nil
}

// ValidateBinaryBatch checks a frequency frame end to end — CRC, header,
// every record against the protocol's wire shape — without touching an
// aggregator. The frame it returns is guaranteed to apply cleanly, which is
// what lets a durable server log the raw bytes write-ahead and then apply
// them under its aggregate's lock with no failure path in between. It never
// panics: corrupted, truncated or mis-tiered inputs come back as errors.
func (p *Protocol) ValidateBinaryBatch(data []byte) (CheckedFrame, error) {
	rec, count, err := openBinaryFrame(data, binaryTierFrequency)
	if err != nil {
		return CheckedFrame{}, err
	}
	f := CheckedFrame{owner: p, records: rec, count: count}
	if p.shape.bitsLen == 0 {
		err = p.walkBinaryRecords(rec, count, nil, nil)
	} else {
		rows := frameRowsPool.Get().(*frameRows)
		rows.Reset(p.shape.classes)
		rows.token = 0 // no frame's rows until the walk comes out clean
		if err = p.walkBinaryRecords(rec, count, &rows.RowSets, nil); err == nil {
			rows.token = frameTokens.Add(1)
			f.token = rows.token
		}
		frameRowsPool.Put(rows)
	}
	if err != nil {
		return CheckedFrame{}, err
	}
	return f, nil
}

// frameRows is the rows of one checked bit-vector frame, filed by label, and
// the token of the check that filed them. The check puts its filing in
// frameRowsPool as soon as it is done, so a frame that is dropped unfolded
// keeps nothing. A server folds a frame right after checking it (after the
// log append, for a durable one), so FoldChecked nearly always gets that
// same filing back from the pool and knows it by the token; when it gets
// another, it files the frame again.
type frameRows struct {
	bitvec.RowSets
	token uint64
}

var (
	frameRowsPool = sync.Pool{New: func() any { return new(frameRows) }}
	// frameTokens numbers the clean checks of bit-vector frames from 1, so
	// a filing is used only for the frame whose check made it.
	frameTokens atomic.Uint64
)

// FoldChecked folds every record of a frame ValidateBinaryBatch accepted
// into t, a table of p's shape. Value reports are folded one per record.
// Bit-vector reports are counted per label from the rows the check filed —
// filed again first, should the pool hand back another frame's — and then
// summed by column (bitvec.AddRows) over each label's kept rows. Nothing is
// allocated per report or, after warm-up, per frame.
func (p *Protocol) FoldChecked(t *state.Table, f CheckedFrame) {
	if f.owner != p {
		panic("core: frame was checked by another protocol")
	}
	if p.shape.bitsLen == 0 {
		p.walkBinaryRecords(f.records, f.count, nil, func(r binaryRecord) { //nolint:errcheck — checked frame
			p.add(t, Report{Class: r.Label, Item: fo.Report{Value: r.Value, Seed: r.Seed}})
		})
		return
	}
	rows := frameRowsPool.Get().(*frameRows)
	if rows.token != f.token {
		rows.Reset(p.shape.classes)
		p.walkBinaryRecords(f.records, f.count, &rows.RowSets, nil) //nolint:errcheck — checked frame
		rows.token = f.token
	}
	nw := (p.shape.bitsLen + 63) / 64
	for label, kept := range rows.Rows() {
		count(t, label, len(kept)+rows.Dropped(label))
		// A kept row's flag bit is clear, so every set bit indexes the row.
		bitvec.AddRows(t.Row(label), f.records, kept, nw)
	}
	frameRowsPool.Put(rows)
}

// ApplyBinaryBatch validates a frequency frame and folds every record into
// agg, returning the record count. The frame is all-or-nothing: validation
// runs ahead of the first add, so an invalid frame returns an error with
// nothing applied.
func (p *Protocol) ApplyBinaryBatch(agg Aggregator, data []byte) (int, error) {
	f, err := p.ValidateBinaryBatch(data)
	if err != nil {
		return 0, err
	}
	_, t := agg.counts()
	p.FoldChecked(t, f)
	return f.count, nil
}

// DecodeBinaryBatch materializes every payload of a frequency frame — the
// binary analogue of unmarshalling a JSON batch body. The hot ingest path
// uses ApplyBinaryBatch instead; this is for tools and tests that need the
// payloads themselves.
func (p *Protocol) DecodeBinaryBatch(data []byte) ([]WirePayload, error) {
	f, err := p.ValidateBinaryBatch(data)
	if err != nil {
		return nil, err
	}
	var out []WirePayload
	p.walkBinaryRecords(f.records, f.count, nil, func(r binaryRecord) { //nolint:errcheck — checked frame
		w := WirePayload{Label: r.Label}
		if n := p.shape.bitsLen; n > 0 {
			w.Bits = bitvec.AppendSetBits(nil, f.records[r.Bits:], (n+63)/64)
		} else {
			v := r.Value
			w.Value = &v
			w.Seed = r.Seed
		}
		out = append(out, w)
	})
	return out, nil
}

// ---------------------------------------------------------------------------
// Mean tier.
// ---------------------------------------------------------------------------

// AppendBinaryMeanBatch appends one binary frame carrying mean reports to
// dst. Reports are validated against the protocol's label and symbol
// domains, exactly like DecodeMeanReport.
func (p *NumericProtocol) AppendBinaryMeanBatch(dst []byte, wires []WireMeanReport) ([]byte, error) {
	off := len(dst)
	dst = appendBinaryHeader(dst, binaryTierMean, len(wires))
	for i, w := range wires {
		if w.Label < 0 || w.Label >= p.classes {
			return nil, fmt.Errorf("core: %s report %d label %d outside [0,%d)", p.name, i, w.Label, p.classes)
		}
		if w.Symbol < 0 || w.Symbol >= p.halves.Symbols {
			return nil, fmt.Errorf("core: %s report %d symbol %d outside [0,%d)", p.name, i, w.Symbol, p.halves.Symbols)
		}
		dst = binary.AppendUvarint(dst, uint64(w.Label))
		dst = binary.AppendUvarint(dst, uint64(w.Symbol))
	}
	return FinishBinaryFrame(dst, off), nil
}

// countMeanRecords is the mean tier's one record walk: it checks every
// record of a frame's record region — both varints complete, label and
// symbol in range, no bytes left over — and counts it into cells, indexed
// label*symbols+symbol and zero on entry. A record whose two varints are
// single bytes (every label under 128) is read as the two bytes it is; any
// other goes through binary.Uvarint in the same iteration.
func (p *NumericProtocol) countMeanRecords(cells []uint32, rec []byte, count int) error {
	classes, symbols := uint64(p.classes), uint64(p.halves.Symbols)
	pos := 0
	for i := 0; i < count; i++ {
		var label, sym uint64
		if pos+1 < len(rec) && (rec[pos]|rec[pos+1]) < 0x80 {
			label, sym = uint64(rec[pos]), uint64(rec[pos+1])
			pos += 2
		} else {
			var n int
			if label, n = binary.Uvarint(rec[pos:]); n <= 0 {
				return fmt.Errorf("core: binary record %d: truncated label", i)
			}
			pos += n
			if sym, n = binary.Uvarint(rec[pos:]); n <= 0 {
				return fmt.Errorf("core: binary record %d: truncated symbol", i)
			}
			pos += n
		}
		if label >= classes {
			return fmt.Errorf("core: binary record %d: %s label %d outside [0,%d)", i, p.name, label, p.classes)
		}
		if sym >= symbols {
			return fmt.Errorf("core: binary record %d: %s symbol %d outside [0,%d)", i, p.name, sym, p.halves.Symbols)
		}
		cells[label*symbols+sym]++
	}
	if pos != len(rec) {
		return fmt.Errorf("core: binary frame has %d trailing record bytes", len(rec)-pos)
	}
	return nil
}

// ValidateBinaryMeanBatch checks a mean frame end to end without touching
// an aggregator; the frame it returns is guaranteed to apply cleanly, and
// already holds the frame's (label, symbol) counts, so applying it does not
// read the records again.
func (p *NumericProtocol) ValidateBinaryMeanBatch(data []byte) (CheckedFrame, error) {
	var f CheckedFrame
	if err := p.checkMeanFrame(&f, data); err != nil {
		return CheckedFrame{}, err
	}
	return f, nil
}

// checkMeanFrame is ValidateBinaryMeanBatch into a zero frame the caller
// owns; f is proof of nothing unless the error is nil.
func (p *NumericProtocol) checkMeanFrame(f *CheckedFrame, data []byte) error {
	rec, count, err := openBinaryFrame(data, binaryTierMean)
	if err != nil {
		return err
	}
	f.owner, f.records, f.count = p, rec, count
	if n := p.classes * p.halves.Symbols; n > len(f.inline) {
		f.spill = make([]uint32, n)
	}
	return p.countMeanRecords(f.meanCells(), rec, count)
}

// FoldChecked folds a frame ValidateBinaryMeanBatch accepted into t, a
// table of p's shape: one count per occupied (label, symbol) cell, whatever
// the frame's report count. It allocates nothing and leaves f as it was, so
// a frame may be folded into any number of tables.
func (p *NumericProtocol) FoldChecked(t *state.Table, f CheckedFrame) {
	p.foldCells(&f, func(label, symbol int, n int64) { p.halves.AddCounts(t, label, symbol, n) })
}

// foldCells hands add the count of every occupied (label, symbol) cell of
// a frame p checked.
func (p *NumericProtocol) foldCells(f *CheckedFrame, add func(label, symbol int, n int64)) {
	if f.owner != p {
		panic("core: frame was checked by another protocol")
	}
	symbols := p.halves.Symbols
	for cell, n := range f.meanCells()[:p.classes*symbols] {
		if n != 0 {
			add(cell/symbols, cell%symbols, int64(n))
		}
	}
}

// ApplyBinaryMeanBatch validates a mean frame and folds every record into
// agg, returning the record count; an invalid frame returns an error with
// nothing applied.
func (p *NumericProtocol) ApplyBinaryMeanBatch(agg mean.Aggregator, data []byte) (int, error) {
	var f CheckedFrame
	if err := p.checkMeanFrame(&f, data); err != nil {
		return 0, err
	}
	p.foldCells(&f, agg.AddCounts)
	return f.count, nil
}

// DecodeBinaryMeanBatch materializes every payload of a mean frame; the
// hot path uses ApplyBinaryMeanBatch instead.
func (p *NumericProtocol) DecodeBinaryMeanBatch(data []byte) ([]WireMeanReport, error) {
	f, err := p.ValidateBinaryMeanBatch(data)
	if err != nil {
		return nil, err
	}
	var out []WireMeanReport
	for pos, i := 0, 0; i < f.count; i++ {
		label, n := binary.Uvarint(f.records[pos:])
		sym, m := binary.Uvarint(f.records[pos+n:])
		pos += n + m
		out = append(out, WireMeanReport{Label: int(label), Symbol: int(sym)})
	}
	return out, nil
}
