package topk

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/xrand"
)

// Miner is a multi-class top-k mining framework. Since the round
// decomposition, every miner is a thin offline driver over the session
// halves: Mine plans a session (NewSession), derives per-user generators
// from the session seed, and drives planner and RoundEncoder to completion
// (RunSession) — the same code path a served session exercises over HTTP.
type Miner interface {
	// Name identifies the framework in experiment output.
	Name() string
	// Mine returns the per-class top-k rankings for the dataset under the
	// given total budget ε.
	Mine(data *core.Dataset, k int, eps float64, r *xrand.Rand) (*Result, error)
}

// checkMineArgs validates the shared Mine preconditions.
func checkMineArgs(data *core.Dataset, k int, eps float64) error {
	if err := data.Validate(); err != nil {
		return err
	}
	if k <= 0 {
		return fmt.Errorf("topk: non-positive k %d", k)
	}
	if !(eps > 0) {
		return fmt.Errorf("topk: non-positive epsilon %v", eps)
	}
	if data.Items < 2 {
		return fmt.Errorf("topk: item domain %d too small", data.Items)
	}
	return nil
}

// mineVia is the shared Mine body: draw a session seed from the caller's
// generator, plan the session, drive it offline.
func mineVia(framework string, opt Options, data *core.Dataset, k int, eps float64, r *xrand.Rand) (*Result, error) {
	if err := checkMineArgs(data, k, eps); err != nil {
		return nil, err
	}
	pl, err := NewSession(SessionParams{
		Framework: framework,
		Classes:   data.Classes,
		Items:     data.Items,
		K:         k,
		Eps:       eps,
		Users:     data.N(),
		Seed:      r.Uint64(),
		Opt:       opt,
	})
	if err != nil {
		return nil, fmt.Errorf("topk: %s: %w", framework, err)
	}
	res, err := RunSession(pl, data.Pairs)
	if err != nil {
		return nil, fmt.Errorf("topk: %s: %w", framework, err)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// HEC: per-class user partition, full budget on items (the strawman).
// ---------------------------------------------------------------------------

// HEC divides the users into c groups, one per class (each user picks its
// group client-side); within a group a user whose label does not match the
// group's class is invalid for the whole run. The c single-domain mining
// runs proceed in lockstep, one shared iteration per round.
type HEC struct {
	Opt Options
}

// NewHEC returns the HEC top-k miner (baseline options unless overridden).
func NewHEC(opt Options) *HEC { return &HEC{Opt: opt.withDefaults()} }

// Name implements Miner.
func (h *HEC) Name() string { return "HEC" + optSuffix(h.Opt, false) }

// Mine implements Miner.
func (h *HEC) Mine(data *core.Dataset, k int, eps float64, r *xrand.Rand) (*Result, error) {
	return mineVia("hec", h.Opt, data, k, eps, r)
}

// ---------------------------------------------------------------------------
// PTJ: one mining run over the joint (class, item) pair domain.
// ---------------------------------------------------------------------------

// PTJ mines the joint Cartesian domain of size c·d with the full budget,
// targeting the top c·k pairs, then projects the ranked pairs onto
// per-class top-k lists. It cannot exploit globally frequent items — a pair
// (C, I) from another class contributes nothing to (C', I) — which is why
// it fails on data-starved classes (Fig. 8).
type PTJ struct {
	Opt Options
}

// NewPTJ returns the PTJ top-k miner.
func NewPTJ(opt Options) *PTJ { return &PTJ{Opt: opt.withDefaults()} }

// Name implements Miner.
func (f *PTJ) Name() string { return "PTJ" + optSuffix(f.Opt, false) }

// Mine implements Miner.
func (f *PTJ) Mine(data *core.Dataset, k int, eps float64, r *xrand.Rand) (*Result, error) {
	return mineVia("ptj", f.Opt, data, k, eps, r)
}

// ---------------------------------------------------------------------------
// PTS: split budget, perturbed-label routing, Algorithms 1 and 2.
// ---------------------------------------------------------------------------

// PTS is the paper's main top-k scheme. Every user perturbs their label
// with GRR(ε₁) and their (bucketed) item with ε₂. With Global enabled, the
// first IT_f iterations run Algorithm 1 on an a-fraction sample: one global
// candidate space mined by all users regardless of label, while the
// perturbed labels estimate per-class sizes. The remaining users run
// Algorithm 2: routed to per-class candidate spaces by perturbed label,
// with the final iteration using correlated perturbation where the noise
// check admits it (routed ≤ b·estimated, decided from the label statistics
// of all earlier rounds and broadcast with the final round's config) and
// validity perturbation elsewhere.
type PTS struct {
	Opt Options
}

// NewPTS returns the PTS top-k miner.
func NewPTS(opt Options) *PTS { return &PTS{Opt: opt.withDefaults()} }

// Name implements Miner.
func (f *PTS) Name() string { return "PTS" + optSuffix(f.Opt, true) }

// optSuffix renders the enabled optimizations the way the paper labels its
// curves, e.g. "-Shuffling+VP+CP".
func optSuffix(o Options, pts bool) string {
	s := ""
	if o.Shuffling {
		s += "+Shuffling"
	}
	if o.VP {
		s += "+VP"
	}
	if pts && o.CP {
		s += "+CP"
	}
	if pts && o.Global {
		s += "+Global"
	}
	if s == "" {
		return ""
	}
	return "-" + s[1:]
}

// Mine implements Miner.
func (f *PTS) Mine(data *core.Dataset, k int, eps float64, r *xrand.Rand) (*Result, error) {
	return mineVia("pts", f.Opt, data, k, eps, r)
}

// cpFeasible implements the Algorithm 2 line 8 noise check in its
// broadcastable form: correlated perturbation is applied only when the
// amount routed to the class — labelCount of the labelTotal perturbed
// labels collected in all rounds before the final one (the global phase
// when enabled) — does not exceed b times the class's estimated true size
// n̂, calibrated from those same labels. Deciding from the prior rounds is
// what lets the switch be fixed when the final round opens and shipped in
// its broadcast.
func cpFeasible(labelCount, labelTotal int64, label *fo.GRR, b float64) bool {
	if labelTotal == 0 {
		return true // no evidence of excess noise; default to CP
	}
	nHat := (float64(labelCount) - float64(labelTotal)*label.Q()) / (label.P() - label.Q())
	if nHat <= 0 {
		return false // class too small to estimate: CP would starve it
	}
	return float64(labelCount) <= b*nHat
}
