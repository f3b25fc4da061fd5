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
// folds it into the local table exactly. Because tables are integer
// counts, N edge collectors ingesting disjoint report streams and pushing
// their merged state here produce estimates bit-identical to one central
// server ingesting every report itself — the property cmd/mcimedge builds
// on and TestFederatedMergeEqualsCentralized pins.

// StateContentType is the media type for fingerprinted state envelopes
// (the bytes Snapshot / Drain produce, framed by internal/state). The
// /merge endpoint sniffs the envelope itself rather than trusting the
// header, so generic posters may still send application/octet-stream;
// cmd/mcimedge labels its pushes with this type.
const StateContentType = "application/x-mcim-state"

// WireMergeAck acknowledges a /merge request: Merged is the report count
// the envelope contributed, Reports the post-merge total of the tier that
// took it.
type WireMergeAck struct {
	Merged  int `json:"merged"`
	Reports int `json:"reports"`
}

// errNotDurable marks a write the server could not make durable (the WAL
// append failed): it was NOT applied and may be safely retried. The
// federation endpoint answers it with a 500, distinguishing it from the
// 400/409 rejection statuses; the report endpoints answer every such
// failure with a 500.
var errNotDurable = errors.New("collect: write not made durable")

// handleMerge ingests one state envelope. The envelope must carry the
// exact fingerprint of one of the server's tiers — the frequency protocol
// or, when mounted, the mean tier's numeric protocol; it routes to that
// tier's table. A mismatch — another framework, domain, budget, or
// mechanism set — is answered with 409 Conflict, since folding it in would
// silently corrupt calibration; corrupt envelopes, impossible tables and
// envelopes the tier has no headroom for (see maxTierReports) are 400s; a
// durability failure while logging the merge is a 500 and the envelope was
// not merged.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, DefaultMergeMaxBodyBytes)
	if !ok {
		return
	}
	n, total, err := s.mergeState(body)
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
	writeJSON(w, WireMergeAck{Merged: n, Reports: total})
}

// MergeState folds a state envelope (as produced by Snapshot, SnapshotMean,
// Drain, DrainMean, or a peer's /merge push) into the tier whose protocol
// fingerprint the envelope carries, returning the number of reports it
// contributed. It is the programmatic form of POST /merge and shares its
// durability semantics: with a WAL, the envelope is logged before it is
// applied. An envelope matching neither tier is core.ErrIncompatibleState.
func (s *Server) MergeState(env []byte) (int, error) {
	n, _, err := s.mergeState(env)
	return n, err
}

// mergeState is MergeState that also returns the post-merge total of the
// tier that took the envelope. The envelope goes to the first tier whose
// protocol opens it: a tier answers core.ErrIncompatibleState exactly when
// the fingerprint is not its own, so the check that routes an envelope is
// the one that validates it.
func (s *Server) mergeState(env []byte) (merged, total int, err error) {
	if s.freq != nil {
		if merged, err = s.freq.mergeDurable(env); !errors.Is(err, core.ErrIncompatibleState) {
			return merged, s.freq.reports(), err
		}
	}
	if s.mean != nil {
		if merged, err = s.mean.mergeDurable(env); !errors.Is(err, core.ErrIncompatibleState) {
			return merged, s.mean.reports(), err
		}
	}
	fp, _, err := state.Decode(env)
	if err != nil {
		return 0, 0, err
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
	return 0, 0, fmt.Errorf("%w: envelope %q matches none of this server's tiers (serving %s)",
		core.ErrIncompatibleState, fp, served)
}

// Drain atomically empties the frequency tier and returns the envelope of
// the table it took (the bytes Snapshot would have returned) and its report
// count — the edge collector's push primitive: drain, POST the envelope to
// the upstream /merge, and on a definitive push rejection MergeState it
// back so the reports ride the next push. On a WAL-backed server the drain
// also compacts the log to an empty snapshot, so a restart does not
// resurrect (and re-push) reports that were handed to the caller; the
// window between a drain and a successful upstream push is the one place
// durability is delegated to the caller holding the envelope. Drain is
// atomic: if the WAL cannot be moved past the drained state, the table is
// put back and nothing is handed out.
func (s *Server) Drain() (env []byte, n int, err error) {
	if s.freq == nil {
		return nil, 0, errNoFrequencyTier()
	}
	return s.freq.drain()
}
