package collect

import "strings"

// This file is the binary wire path of both report tiers — the
// high-throughput alternative to the JSON-array/NDJSON batch encodings.
// The server advertises `"wire": ["json","binary"]` in /config and
// /mean/config; clients opt in per request by posting a core binary frame
// (see internal/core/binwire.go) with the BinaryContentType media type to
// the same /reports and /mean/reports endpoints. JSON remains the
// compatibility path and the single-report endpoints stay JSON-only.
//
// Semantics differ from the JSON path in one deliberate way: a binary
// frame is all-or-nothing. JSON batches tolerate per-item rejections
// because each item is an independent user report that may predate a
// config change; a binary frame comes from a protocol-checked encoder and
// is CRC-sealed, so any invalid record means corruption or
// misconfiguration — the whole frame is a 400 (naming the offending record
// index) and nothing is applied. That is also what lets the hot path skip
// per-item bookkeeping entirely: the frame is validated once, logged
// write-ahead as raw bytes, and folded into the aggregate word-at-a-time
// with zero per-report allocations.

// BinaryContentType is the media type that selects the binary batch frame
// on the report endpoints. Servers advertise it in the config `wire` list;
// requests with any other content type take the JSON/NDJSON path.
const BinaryContentType = "application/x-mcim-batch"

// wireFormats is what a server advertises in the config `wire` field.
func wireFormats() []string { return []string{"json", "binary"} }

// wireSupports reports whether an advertised wire list includes format.
// Servers predating the field advertise nothing beyond JSON.
func wireSupports(formats []string, format string) bool {
	for _, f := range formats {
		if f == format {
			return true
		}
	}
	return false
}

// isBinaryContentType matches a Content-Type header against
// BinaryContentType, ignoring parameters and case per RFC 9110.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), BinaryContentType)
}
