package collect

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/state"
)

// This file is the federation tier: POST /merge accepts another server's
// fingerprinted state envelope (the bytes Snapshot / Drain produce) and
// folds it into the local aggregate exactly. Because aggregates are integer
// counts, N edge collectors ingesting disjoint report streams and pushing
// their merged state here produce estimates bit-identical to one central
// server ingesting every report itself — the property cmd/mcimedge builds
// on and TestFederatedMergeEqualsCentralized pins.

// StateContentType is the media type for fingerprinted aggregator state
// envelopes (the bytes Snapshot / Drain + MarshalAggregator produce, framed
// by internal/state). The /merge endpoint sniffs the envelope itself rather
// than trusting the header, so generic posters may still send
// application/octet-stream; cmd/mcimedge labels its pushes with this type.
const StateContentType = "application/x-mcim-state"

// WireMergeAck acknowledges a /merge request: Merged is the report count
// the envelope contributed, Reports the server's post-merge total.
type WireMergeAck struct {
	Merged  int `json:"merged"`
	Reports int `json:"reports"`
}

// errNotDurable marks a merge the server could not make durable (the WAL
// append failed): the envelope was NOT applied and the push may be safely
// retried. The federation endpoint answers it with a 500, distinguishing
// it from the 400/409 rejection statuses.
var errNotDurable = errors.New("collect: merge not made durable")

// handleMerge ingests one state envelope. The envelope must carry the
// exact fingerprint of one of the server's tiers — the frequency protocol
// or, when mounted, the mean tier's numeric protocol; it routes to that
// tier's aggregate. A mismatch — another framework, domain, budget, or
// mechanism set — is answered with 409 Conflict, since folding it in would
// silently corrupt calibration; corrupt envelopes are 400s; a durability
// failure while logging the merge is a 500 and the envelope was not
// merged.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, DefaultMergeMaxBodyBytes)
	if !ok {
		return
	}
	n, err := s.MergeState(body)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, core.ErrIncompatibleState):
			status = http.StatusConflict
		case errors.Is(err, errNotDurable):
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, WireMergeAck{Merged: n, Reports: s.Reports() + s.MeanReports()})
}

// MergeState folds a state envelope (as produced by Snapshot, SnapshotMean,
// Drain/DrainMean + MarshalAggregator, or a peer's /merge push) into the
// tier whose protocol fingerprint the envelope carries, returning the
// number of reports it contributed. It is the programmatic form of POST
// /merge and shares its durability semantics: with a WAL, the envelope is
// logged before it is applied. An envelope matching neither tier is
// core.ErrIncompatibleState.
func (s *Server) MergeState(env []byte) (int, error) {
	fp, _, err := state.Decode(env)
	if err != nil {
		return 0, err
	}
	if s.freq != nil && fp == s.proto.Fingerprint() {
		return s.freq.mergeDurable(env)
	}
	if s.mean != nil && fp == s.meanProto.Fingerprint() {
		return s.mean.mergeDurable(env)
	}
	// Name every tier the server does serve — fingerprint AND protocol — so
	// an edge operator reading the 409 body can see exactly which side is
	// misconfigured instead of guessing.
	var tiers []string
	if s.freq != nil {
		tiers = append(tiers, fmt.Sprintf("frequency %q (protocol %s)", s.proto.Fingerprint(), s.proto.Name()))
	}
	if s.mean != nil {
		tiers = append(tiers, fmt.Sprintf("mean %q (protocol %s)", s.meanProto.Fingerprint(), s.meanProto.Name()))
	}
	served := "no tier"
	if len(tiers) > 0 {
		served = strings.Join(tiers, ", ")
	}
	return 0, fmt.Errorf("%w: envelope %q matches none of this server's tiers (serving %s)",
		core.ErrIncompatibleState, fp, served)
}

// Drain atomically removes and returns the server's entire aggregate,
// leaving it empty — the edge collector's push primitive: drain, marshal,
// POST to the upstream /merge, and on a definitive push rejection
// MergeState the envelope back so the reports ride the next push. On a
// WAL-backed server the drain also compacts the log to an empty snapshot,
// so a restart does not resurrect (and re-push) reports that were handed
// to the caller; the window between a drain and a successful upstream push
// is the one place durability is delegated to the caller holding the
// aggregate. Drain is atomic: if the WAL cannot be moved past the drained
// state, the aggregate is folded back in and nothing is handed out.
func (s *Server) Drain() (core.Aggregator, error) {
	if s.freq == nil {
		return nil, errNoFrequencyTier()
	}
	return s.freq.drain()
}
