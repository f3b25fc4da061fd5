package collect

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// This file renders the report tiers' estimate bodies and the binary ingest
// ack by appending bytes, not through encoding/json's reflection. The output
// is exactly what json.NewEncoder(w).Encode emits for WireEstimates,
// WireMeanEstimates and WireBatchAck: the same keys in the same order, the
// same float text and the trailing newline. A value encoding/json refuses
// (NaN, ±Inf) is refused with the same error, so the handler answers the
// same 500. TestEstimatesRenderMatchesEncodingJSON and FuzzEstimatesJSON
// hold the two to the same bytes.
//
// Every estimator is an affine function of a row's integer counts, and LDP
// noise packs those counts into a narrow band, so most cells of a body share
// their value with another cell: at ptscp's c = 10, d = 2,048 only 5–12 % of
// the values are distinct at 32 K–200 K reports. A render formats each
// distinct value once (floatMemo) and copies its text for every repeat.

// bytesPerFloat sizes a body's buffer before it is rendered: a calibrated
// estimate's text averages 19 bytes at ptscp's c = 10, d = 2,048, so one
// allocation holds nearly every body, and one that outgrows it grows once.
const bytesPerFloat = 20

// floatMemoBits sizes a render's float memo: 1,024 entries, 13 KB.
const floatMemoBits = 10

// floatMemo remembers where in the body being rendered each float value was
// first written, so a repeat is a copy of those bytes instead of a second
// formatting. It is direct-mapped on the value's bits: a collision replaces
// the older entry, which costs that value a re-format and never a wrong byte,
// since a hit compares the full bits. It lives for one render only.
type floatMemo struct {
	bits [1 << floatMemoBits]uint64
	off  [1 << floatMemoBits]uint32
	n    [1 << floatMemoBits]uint8 // the text's length; 0 marks an empty entry
	// err is the first value refused; rendering carries on past it and the
	// caller discards the body.
	err error
}

// float appends f as encoding/json writes a float64.
func (m *floatMemo) float(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	i := (bits * 0x9e3779b97f4a7c15) >> (64 - floatMemoBits)
	if n := m.n[i]; n != 0 && m.bits[i] == bits {
		off := m.off[i]
		return append(dst, dst[off:off+uint32(n)]...)
	}
	start := len(dst)
	dst, err := appendJSONFloat(dst, f)
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return dst
	}
	if start <= math.MaxUint32-64 {
		m.bits[i], m.off[i], m.n[i] = bits, uint32(start), uint8(len(dst)-start)
	}
	return dst
}

// array appends fs as a JSON array (null when nil, as encoding/json does).
func (m *floatMemo) array(dst []byte, fs []float64) []byte {
	if fs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = m.float(dst, f)
	}
	return append(dst, ']')
}

// appendJSONFloat appends f the way encoding/json encodes a float64: the
// shortest text that round-trips, in exponent form only when 0 < |f| < 1e-6
// or |f| ≥ 1e21, with a one-digit negative exponent written without its
// leading zero (ES6 number-to-string).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendFrequencies appends the frequency tier's /estimates body, the
// encoding of WireEstimates{reports, freq, sizes}.
func appendFrequencies(dst []byte, reports int64, freq [][]float64, sizes []float64) ([]byte, error) {
	floats := len(sizes)
	for _, row := range freq {
		floats += len(row)
	}
	dst = slices.Grow(dst, 64+bytesPerFloat*floats)
	var m floatMemo
	dst = append(dst, `{"reports":`...)
	dst = strconv.AppendInt(dst, reports, 10)
	dst = append(dst, `,"frequencies":`...)
	if freq == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range freq {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = m.array(dst, row)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"class_sizes":`...)
	dst = m.array(dst, sizes)
	return append(dst, "}\n"...), m.err
}

// appendMeans appends the mean tier's /mean/estimates body, the encoding of
// WireMeanEstimates{reports, means, sizes}.
func appendMeans(dst []byte, reports int64, means, sizes []float64) ([]byte, error) {
	dst = slices.Grow(dst, 64+bytesPerFloat*(len(means)+len(sizes)))
	var m floatMemo
	dst = append(dst, `{"reports":`...)
	dst = strconv.AppendInt(dst, reports, 10)
	dst = append(dst, `,"means":`...)
	dst = m.array(dst, means)
	dst = append(dst, `,"class_sizes":`...)
	dst = m.array(dst, sizes)
	return append(dst, "}\n"...), m.err
}

// appendBinaryAck appends the ack of an accepted binary frame, the encoding
// of WireBatchAck{Accepted: accepted, Reports: reports}: a frame is all or
// nothing, so nothing is rejected and there is no error list.
func appendBinaryAck(dst []byte, accepted, reports int) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(accepted), 10)
	dst = append(dst, `,"rejected":0,"reports":`...)
	dst = strconv.AppendInt(dst, int64(reports), 10)
	return append(dst, "}\n"...)
}
