package core

import (
	"errors"
	"fmt"

	"repro/internal/state"
)

// This file makes every framework's server half durable and shippable: the
// count table (state.Table) is wrapped in a versioned internal/state
// envelope fingerprinted with the protocol's full identity. The envelope is
// what crosses process boundaries — disk checkpoints, WAL compaction
// snapshots, and the edge→root /merge tier — so a payload can never be
// restored into a protocol it does not match, which would decode cleanly
// (the shapes often coincide) and then calibrate with the wrong
// probabilities. Both report tiers open envelopes through checkEnvelope.

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

// AppendTable appends t, a table of p's shape, to dst in a versioned
// envelope fingerprinted for p: the bytes OpenTableInto on a matching
// protocol accepts.
func (p *Protocol) AppendTable(dst []byte, t *state.Table) []byte {
	return state.AppendTable(dst, p.fp, t)
}

// CheckEnvelope checks an envelope AppendTable wrote, after verifying it
// belongs to p before trusting a byte of the payload (see checkEnvelope),
// and returns its table to be added straight from the envelope's bytes
// (state.Table.MergeChecked).
func (p *Protocol) CheckEnvelope(env []byte) (state.CheckedTable, error) {
	return checkEnvelope(env, p.fp, p.table, func(payload []byte) ([]byte, error) {
		return upgradeFrequencyState(p, payload)
	})
}

// OpenTableInto is CheckEnvelope into dst, whose cells it reuses when
// they fit; on error dst is unchanged.
func (p *Protocol) OpenTableInto(dst *state.Table, env []byte) error {
	return openInto(dst, p.table, p.CheckEnvelope, env)
}

// MarshalAggregator is AppendTable over a's table. The aggregator must have
// been vended by a protocol with this fingerprint.
func (p *Protocol) MarshalAggregator(a Aggregator) ([]byte, error) {
	_, t := a.counts()
	return p.AppendTable(nil, t), nil
}

// UnmarshalAggregator is OpenTableInto returning the table as an
// aggregator.
func (p *Protocol) UnmarshalAggregator(data []byte) (Aggregator, error) {
	var t state.Table
	if err := p.OpenTableInto(&t, data); err != nil {
		return nil, err
	}
	return &aggregator{p, t}, nil
}

// checkEnvelope is the one way into report-tier state from an envelope:
// the envelope's CRC and framing are checked by internal/state, the
// fingerprint must be fp exactly (ErrIncompatibleState otherwise), a
// payload written before tables is rebuilt by upgrade (the one-version
// shim, legacy.go), and the table must have the protocol's shape and keep
// its invariants (state.CheckTable). Corrupt or adversarial inputs error;
// they never panic.
func checkEnvelope(env []byte, fp string, shape state.Shape, upgrade func([]byte) ([]byte, error)) (state.CheckedTable, error) {
	got, payload, err := state.DecodeView(env)
	if err != nil {
		return state.CheckedTable{}, err
	}
	if string(got) != fp {
		return state.CheckedTable{}, fmt.Errorf("%w: envelope %q, protocol %q", ErrIncompatibleState, got, fp)
	}
	if payload, err = upgrade(payload); err != nil {
		return state.CheckedTable{}, err
	}
	c, err := state.CheckTable(payload)
	if err != nil {
		return state.CheckedTable{}, err
	}
	if c.Shape() != shape {
		return state.CheckedTable{}, fmt.Errorf("state: table is %v, want %v", c.Shape(), shape)
	}
	return c, nil
}

// openInto is OpenTableInto for a protocol of shape whose envelope check
// is check: the checked table added into dst emptied.
func openInto(dst *state.Table, shape state.Shape, check func([]byte) (state.CheckedTable, error), env []byte) error {
	c, err := check(env)
	if err != nil {
		return err
	}
	dst.Reset(shape)
	return dst.MergeChecked(c)
}
