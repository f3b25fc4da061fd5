package collect

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/state"
)

// This file is the numeric mean tier: the collection server hosts the
// classwise mean-estimation frameworks (internal/mean via
// core.NumericProtocol) with full parity to the frequency tier — batched
// ingestion over the same JSON-array/NDJSON machinery and 413 body cap,
// one table of integer counts cloned on read, write-ahead durability
// with compaction snapshots, and edge→root federation through the shared POST
// /merge endpoint (envelopes route by fingerprint, so one root federates
// both tiers).
//
//	GET  /mean/config    → WireMeanConfig (protocol name + round parameters)
//	POST /mean/report    → accept one WireMeanReport
//	POST /mean/reports   → accept a batch (JSON array or NDJSON)
//	GET  /mean/estimates → WireMeanEstimates (calibrated means + class sizes)
//
// A server can host the mean tier alongside a frequency protocol or on its
// own (NewServer(nil, WithMean(p))). On a WAL-backed server the tier keeps
// its own log under <dir>/mean with the same sync options, so the two
// tiers' records never interleave and each compacts independently.
//
// The tier is the report-tier engine (tier.go) instantiated over meanCodec,
// so the parity holds by construction: this file declares only the wire
// types, the codec and the exported …Mean forwards.

// WireMeanConfig describes the mean collection round so clients can
// self-configure: Protocol names the framework (hecmean, ptsmean, cpmean)
// whose Encoder clients must run.
type WireMeanConfig struct {
	Protocol     string  `json:"protocol"`
	Classes      int     `json:"classes"`
	Epsilon      float64 `json:"epsilon"`
	Split        float64 `json:"split"`
	MaxBodyBytes int64   `json:"max_body_bytes,omitempty"`
	// Wire lists the batch encodings the server accepts on POST
	// /mean/reports ("json", "binary"); see WireConfig.Wire.
	Wire []string `json:"wire,omitempty"`
}

// WireMeanReport is one perturbed mean report on the wire.
type WireMeanReport = core.WireMeanReport

// WireMeanEstimates is the mean tier's calibrated output.
type WireMeanEstimates struct {
	Reports    int       `json:"reports"`
	Means      []float64 `json:"means"`
	ClassSizes []float64 `json:"class_sizes"`
}

// WireMeanStats is the mean slice of /stats.
type WireMeanStats struct {
	Protocol string `json:"protocol"`
	Reports  int    `json:"reports"`
	// WAL is present only on servers running with a write-ahead log.
	WAL *WireWALStats `json:"wal,omitempty"`
}

// WithMean mounts the numeric mean tier for p's reports under /mean. The
// protocol name must be client-reconstructible (every canonical name is);
// NewServer verifies it the same way it verifies the frequency protocol.
func WithMean(p *core.NumericProtocol) ServerOption {
	return func(s *Server) { s.meanProto, s.meanSet = p, true }
}

// meanCodec adapts a core.NumericProtocol to the report-tier engine (see
// tier.go); the embedded protocol supplies the naming, table and envelope
// half of the codec.
type meanCodec struct{ *core.NumericProtocol }

func (c meanCodec) config(maxBody int64) any {
	return WireMeanConfig{
		Protocol:     c.Name(),
		Classes:      c.Classes(),
		Epsilon:      c.Epsilon(),
		Split:        c.Split(),
		MaxBodyBytes: maxBody,
		Wire:         wireFormats(),
	}
}

func (c meanCodec) decode(wires []WireMeanReport) ([]WireMeanReport, func(*state.Table), []WireItemError) {
	accepted, reps, rejected := decodeEach(wires, c.DecodeMeanReport)
	return accepted, func(t *state.Table) {
		for _, rep := range reps {
			c.Fold(t, rep)
		}
	}, rejected
}

func (c meanCodec) validateBinary(frame []byte) (core.CheckedFrame, error) {
	return c.ValidateBinaryMeanBatch(frame)
}

func (c meanCodec) appendEstimates(dst []byte, t *state.Table) ([]byte, error) {
	means, sizes := c.Calibrate(t)
	return appendMeans(dst, t.N, means, sizes)
}

// MeanProtocol returns the numeric protocol the server aggregates for, or
// nil when the mean tier is not mounted.
func (s *Server) MeanProtocol() *core.NumericProtocol { return s.meanProto }

// MeanReports returns the number of mean reports accumulated so far (0
// when the tier is not mounted).
func (s *Server) MeanReports() int {
	if s.mean == nil {
		return 0
	}
	return s.mean.reports()
}

// errNoMeanTier is returned by the mean state operations on a server
// without the tier.
func errNoMeanTier() error { return fmt.Errorf("collect: server has no mean tier (WithMean)") }

// CompactMean folds the mean tier's WAL into a snapshot of its current
// aggregate, like Compact does for the frequency log. It errors on servers
// without a mean tier or without a WAL.
func (s *Server) CompactMean() error {
	if s.mean == nil {
		return errNoMeanTier()
	}
	if s.mean.log == nil {
		return fmt.Errorf("collect: mean tier has no WAL to compact")
	}
	return s.mean.compact()
}

// SnapshotMean serializes the mean tier's table into a fingerprinted state
// envelope.
func (s *Server) SnapshotMean() ([]byte, error) {
	if s.mean == nil {
		return nil, errNoMeanTier()
	}
	return s.mean.snapshot(), nil
}

// RestoreMean replaces the mean aggregate with a SnapshotMean envelope
// from an identical protocol; the WAL (when present) is moved past its
// history first, so a failure leaves the running state untouched.
func (s *Server) RestoreMean(data []byte) error {
	if s.mean == nil {
		return errNoMeanTier()
	}
	return s.mean.restore(data)
}

// DrainMean atomically empties the mean tier and returns the envelope of
// the table it took and its report count — the edge collector's push
// primitive for the mean tier, with the same atomicity contract as Drain:
// if the WAL cannot be moved past the drained state, the table is put back
// and nothing is handed out.
func (s *Server) DrainMean() (env []byte, n int, err error) {
	if s.mean == nil {
		return nil, 0, errNoMeanTier()
	}
	return s.mean.drain()
}
