package core

import (
	"errors"
	"fmt"

	"repro/internal/state"
)

// This file makes every framework's server half durable and shippable: each
// Aggregator encodes its count table (state.Table), and Protocol wraps those
// bytes in a versioned internal/state envelope fingerprinted with the
// protocol's full identity. The envelope is what crosses process boundaries
// — disk checkpoints, WAL compaction snapshots, and the edge→root /merge
// tier — so a payload can never be restored into a protocol it does not
// match, which would decode cleanly (the shapes often coincide) and then
// calibrate with the wrong probabilities.

// ErrIncompatibleState reports an envelope whose fingerprint does not match
// the protocol trying to restore it. Callers distinguish it from plain
// corruption with errors.Is — a federation server answers it with 409
// Conflict rather than 400.
var ErrIncompatibleState = errors.New("core: aggregator state belongs to an incompatible protocol")

// Fingerprint identifies everything that makes two protocols' aggregates
// interchangeable: name, domain, budget, and the underlying mechanisms'
// calibration identities. Two protocols have equal fingerprints exactly
// when WireCompatible accepts them (the wire-shape comparison is implied by
// the mechanism fingerprints, which include each mechanism's name, domain
// and probabilities).
func (p *Protocol) Fingerprint() string { return p.fp }

// seal computes the fingerprint of a fully built protocol, once.
func (p *Protocol) seal() *Protocol {
	p.fp = fmt.Sprintf("%s|c=%d|d=%d|eps=%v|split=%v|%s", p.name, p.c, p.d, p.eps, p.split, p.mechID)
	return p
}

// MarshalAggregator serializes a's state into a versioned envelope
// fingerprinted for this protocol. The aggregator must have been vended by
// a protocol with this fingerprint; the envelope is what
// UnmarshalAggregator on a matching protocol accepts.
func (p *Protocol) MarshalAggregator(a Aggregator) ([]byte, error) {
	payload, err := a.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return state.Encode(p.fp, payload), nil
}

// UnmarshalAggregator decodes an envelope produced by MarshalAggregator and
// verifies it belongs to this protocol before trusting a byte of the
// payload: the envelope's CRC and framing are checked by internal/state,
// the fingerprint must match p's exactly (ErrIncompatibleState otherwise),
// and the table's shape and invariants are validated by the aggregator's
// UnmarshalBinary. A payload written before tables is read through the
// one-version shim (legacy.go). Corrupt or adversarial inputs error; they
// never panic.
func (p *Protocol) UnmarshalAggregator(data []byte) (Aggregator, error) {
	fp, payload, err := state.Decode(data)
	if err != nil {
		return nil, err
	}
	if fp != p.fp {
		return nil, fmt.Errorf("%w: envelope %q, protocol %q", ErrIncompatibleState, fp, p.fp)
	}
	agg := p.NewAggregator()
	if payload, err = upgradeFrequencyState(p, payload); err != nil {
		return nil, err
	}
	if err := agg.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	return agg, nil
}
