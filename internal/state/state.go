// Package state defines the binary envelope that carries aggregator state
// between processes: a collection server checkpointing to disk, a WAL
// compaction snapshot, or an edge collector shipping its merged aggregate
// upstream. The envelope is deliberately dumb — it knows nothing about
// frameworks. It carries an opaque payload plus a caller-supplied
// fingerprint string, and guarantees three things on decode: the bytes are
// a state envelope (magic), the format is one this code reads (version),
// and nothing was corrupted or truncated in flight (CRC over the whole
// frame, exact-length accounting). Interpreting the fingerprint — refusing
// a payload whose framework, domain or budget does not match the receiver —
// is the caller's job (core.Protocol.UnmarshalAggregator). What the report
// tiers put in the payload is a Table, this package's count table and its
// canonical codec (table.go).
package state

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Version is the envelope format version written by Encode. Decode rejects
// any other version: state is not forward-compatible, and silently
// misreading an aggregate would corrupt estimates rather than crash.
const Version = 1

// magic marks a byte slice as a state envelope. "MCSE": Multi-Class State
// Envelope.
var magic = [4]byte{'M', 'C', 'S', 'E'}

// maxFingerprintLen bounds the fingerprint so a corrupted length prefix
// cannot demand an absurd allocation before the CRC check catches it.
const maxFingerprintLen = 1 << 12

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// amd64/arm64, which matters because every WAL append pays one CRC.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode frames payload under fingerprint:
//
//	magic[4] version[u16] fpLen[u32] fp payloadLen[u32] payload crc32c[u32]
//
// All integers are little-endian; the CRC covers every byte before it.
func Encode(fingerprint string, payload []byte) []byte {
	out := make([]byte, 0, overhead+len(fingerprint)+len(payload))
	out = appendHead(out, fingerprint, len(payload))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// AppendTable appends Encode(fingerprint, t's MarshalBinary bytes) to dst,
// encoding the table straight into the envelope: no payload buffer, no
// copy.
func AppendTable(dst []byte, fingerprint string, t *Table) []byte {
	dst = slices.Grow(dst, overhead+len(fingerprint)+t.sizeHint())
	start := len(dst)
	dst = appendHead(dst, fingerprint, 0)
	at := len(dst)
	dst, _ = t.AppendBinary(dst) // encoding a table cannot fail
	binary.LittleEndian.PutUint32(dst[at-4:at], uint32(len(dst)-at))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// overhead is an envelope's size beyond its fingerprint and payload:
// magic, version, the two length prefixes and the CRC.
const overhead = 4 + 2 + 4 + 4 + 4

// appendHead appends everything before the payload.
func appendHead(dst []byte, fingerprint string, payloadLen int) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fingerprint)))
	dst = append(dst, fingerprint...)
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
}

// Decode validates an envelope and returns its fingerprint and payload. It
// never panics: corrupted, truncated or oversized inputs — including
// adversarial length prefixes — come back as errors. The payload is a
// subslice of data, not a copy.
func Decode(data []byte) (fingerprint string, payload []byte, err error) {
	fp, payload, err := DecodeView(data)
	return string(fp), payload, err
}

// DecodeView is Decode without the fingerprint's copy: both slices alias
// data, so opening an envelope allocates nothing.
func DecodeView(data []byte) (fingerprint, payload []byte, err error) {
	if len(data) < overhead {
		return nil, nil, fmt.Errorf("state: envelope truncated (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, nil, fmt.Errorf("state: envelope CRC mismatch (got %08x, want %08x)", got, want)
	}
	if [4]byte(body[:4]) != magic {
		return nil, nil, fmt.Errorf("state: bad envelope magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != Version {
		return nil, nil, fmt.Errorf("state: envelope version %d, this build reads %d", v, Version)
	}
	fpLen := binary.LittleEndian.Uint32(body[6:10])
	if fpLen > maxFingerprintLen {
		return nil, nil, fmt.Errorf("state: fingerprint length %d exceeds %d", fpLen, maxFingerprintLen)
	}
	rest := body[10:]
	if uint64(len(rest)) < uint64(fpLen)+4 {
		return nil, nil, fmt.Errorf("state: envelope truncated inside fingerprint")
	}
	fingerprint = rest[:fpLen:fpLen]
	rest = rest[fpLen:]
	payloadLen := binary.LittleEndian.Uint32(rest[:4])
	rest = rest[4:]
	// The payload must account for every remaining byte exactly; trailing
	// garbage would mean the frame was spliced or mis-concatenated.
	if uint64(payloadLen) != uint64(len(rest)) {
		return nil, nil, fmt.Errorf("state: payload length %d != %d remaining bytes", payloadLen, len(rest))
	}
	return fingerprint, rest, nil
}
