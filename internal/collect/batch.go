package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// maxBatchErrors bounds the per-item error list echoed back in a batch
// acknowledgement so a fully malformed batch cannot produce a response
// larger than the request.
const maxBatchErrors = 32

// NDJSONContentType is the conventional media type for newline-delimited
// JSON batch submissions.
const NDJSONContentType = "application/x-ndjson"

// WireItemError reports one rejected item of a batch by its position in the
// submitted stream.
type WireItemError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// WireBatchAck acknowledges a batch submission. Ingestion is partial:
// valid items are accumulated even when siblings are rejected, and every
// rejection is itemized (up to a cap) so clients can drop or fix exactly
// the offending reports. Reports echoes the server's post-ingest total.
type WireBatchAck struct {
	Accepted int             `json:"accepted"`
	Rejected int             `json:"rejected"`
	Reports  int             `json:"reports"`
	Errors   []WireItemError `json:"errors,omitempty"`
	// ErrorsTruncated is set when more than maxBatchErrors items were
	// rejected and the Errors list was capped.
	ErrorsTruncated bool `json:"errors_truncated,omitempty"`
}

// decodeBatchItems splits a batch body into its individual items. A body
// whose first non-space byte is '[' is a JSON array; anything else is
// treated as an NDJSON stream. The error return is reserved for envelope
// failures (unreadable array syntax, empty body); individual record
// failures inside an NDJSON stream come back as one itemized error plus a
// droppedTail count of the records discarded after the truncation point,
// so Accepted+Rejected still accounts for the whole submitted stream. An
// item's position in items is its index in the submitted stream. It is
// shared by the report tiers' and the top-k round-report endpoints.
func decodeBatchItems[T any](body []byte) (items []T, itemErrs []WireItemError, droppedTail int, err error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, nil, 0, fmt.Errorf("empty batch body")
	}
	if trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &items); err != nil {
			return nil, nil, 0, err
		}
		return items, nil, 0, nil
	}
	// NDJSON: a stream of JSON objects separated by newlines (any JSON
	// whitespace works — json.Decoder consumes a concatenated stream).
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	for i := 0; dec.More(); i++ {
		var wr T
		if derr := dec.Decode(&wr); derr != nil {
			// A malformed record poisons the rest of the stream (there is
			// no reliable resync point), so the remainder is dropped: one
			// itemized error for the bad record, and the lines after it
			// counted into the rejected total.
			droppedTail = tailLines(trimmed, dec.InputOffset())
			itemErrs = append(itemErrs, WireItemError{
				Index: i, Error: fmt.Sprintf("malformed NDJSON record (%d subsequent records dropped): %v", droppedTail, derr),
			})
			break
		}
		items = append(items, wr)
	}
	return items, itemErrs, droppedTail, nil
}

// tailLines counts the non-blank lines strictly after the line containing
// offset — the NDJSON records dropped when the stream is truncated at a
// malformed record.
func tailLines(body []byte, offset int64) int {
	if offset < 0 || offset >= int64(len(body)) {
		return 0
	}
	rest := body[offset:]
	// Skip to the end of the malformed record's own line.
	if i := bytes.IndexByte(rest, '\n'); i < 0 {
		return 0
	} else {
		rest = rest[i+1:]
	}
	n := 0
	for _, line := range bytes.Split(rest, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}
