// Package mcim is the public API of the multi-class item mining library, a
// from-scratch Go reproduction of "Multi-class Item Mining under Local
// Differential Privacy" (ICDE 2025).
//
// Each user holds a label-item pair (C, I); the server estimates classwise
// item statistics under ε-local differential privacy on the whole pair.
// The library provides:
//
//   - Frequency estimation (Definition 3) through four frameworks: the HEC
//     strawman, joint perturbation (PTJ), separate perturbation (PTS), and
//     PTS with the paper's correlated perturbation (PTS-CP). All except HEC
//     produce unbiased estimates.
//
//   - The client/server decomposition of every framework: a Protocol vends
//     a matched Encoder (client side — perturb one pair into a Report) and
//     Aggregator (server side — Add reports, Merge aggregates, read calibrated
//     Estimates) plus the wire codec between them, so each framework
//     deploys the way production LDP systems do. Estimate on each
//     framework is a thin loop over these halves; streaming and batch
//     results are bit-identical.
//
//   - Top-k item mining (Definition 4) through the HEC / PTJ / PTS miners
//     with the paper's optimizations individually toggleable: shuffled
//     bucket candidates, validity perturbation, global candidate
//     generation (Algorithm 1) and the correlated-perturbation final
//     iteration (Algorithm 2).
//
//   - The perturbation mechanisms themselves (VP, CP and the GRR / OUE /
//     SUE / OLH substrate) for callers composing custom pipelines.
//
// Batch quickstart:
//
//	data := &mcim.Dataset{Classes: 2, Items: 100, Name: "demo", Pairs: pairs}
//	est, err := mcim.NewPTSCP(1.0, 0.5)
//	...
//	freq, err := est.Estimate(data, mcim.NewRand(42))
//
// Streaming (deployment-shaped) quickstart:
//
//	proto, err := mcim.NewProtocol("ptscp", 2, 100, 1.0, 0.5)
//	enc, agg := proto.Encoder(), proto.NewAggregator()
//	for _, pair := range pairs {            // client side, one user each
//		agg.Add(enc.Encode(pair, rng))  // server side
//	}
//	freq := agg.Estimates()
//
// See examples/ for runnable end-to-end programs, internal/collect for the
// HTTP collection pipeline over these halves, and cmd/mcimbench for the
// harness that regenerates every table and figure of the paper.
package mcim

import (
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// Invalid marks an item outside the current valid domain; the validity
// perturbation mechanism encodes it as the validity flag.
const Invalid = core.Invalid

// Core data model.
type (
	// Pair is one user's label-item pair (C, I).
	Pair = core.Pair
	// Dataset is a collection of pairs over c classes and d items.
	Dataset = core.Dataset
	// Rand is the deterministic generator all randomized APIs consume.
	Rand = xrand.Rand
)

// NewRand returns a deterministic generator seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// Frequency estimation frameworks (Section VI-A).
type (
	// FrequencyEstimator is a multi-class frequency-estimation framework.
	FrequencyEstimator = core.FrequencyEstimator
	// HEC is the handle-each-class strawman (biased by invalid data).
	HEC = core.HEC
	// PTJ perturbs the pair jointly over the Cartesian domain.
	PTJ = core.PTJ
	// PTS perturbs label and item separately (estimator Eq. 6).
	PTS = core.PTS
	// PTSCP is PTS with the correlated perturbation (estimator Eq. 4).
	PTSCP = core.PTSCP
)

// NewHEC builds the HEC framework with budget eps.
func NewHEC(eps float64) *HEC { return core.NewHEC(eps) }

// NewPTJ builds the PTJ framework with budget eps.
func NewPTJ(eps float64) *PTJ { return core.NewPTJ(eps) }

// NewPTS builds the PTS framework; split is the label-budget fraction
// ε₁/ε (the paper's default is 0.5).
func NewPTS(eps, split float64) (*PTS, error) { return core.NewPTS(eps, split) }

// NewPTSCP builds the PTS-CP framework; split as in NewPTS.
func NewPTSCP(eps, split float64) (*PTSCP, error) { return core.NewPTSCP(eps, split) }

// ItemMechanismFactory builds an item perturber for a domain and budget,
// letting PTS run over OLH, SUE or GRR instead of OUE.
type ItemMechanismFactory = core.ItemMechanismFactory

// NewPTSWithItem builds a PTS variant over another item mechanism.
func NewPTSWithItem(name string, eps, split float64, item ItemMechanismFactory) (FrequencyEstimator, error) {
	return core.NewPTSWithItem(name, eps, split, item)
}

// Client/server decomposition: every framework splits into an Encoder
// (client half) and an Aggregator (server half), vended as a matched pair
// by a Protocol together with the wire codec between them.
type (
	// Protocol vends a framework's matched Encoder/Aggregator halves and
	// (de)serializes its reports for the wire.
	Protocol = core.Protocol
	// Encoder is the client half: Encode perturbs one pair into a Report
	// under the framework's full ε-LDP guarantee.
	Encoder = core.Encoder
	// Aggregator is the server half: Add folds reports in, Merge combines
	// shards exactly, Estimates returns the calibrated c×d matrix.
	Aggregator = core.Aggregator
	// PairReport is one perturbed pair report crossing client to server.
	PairReport = core.Report
	// WirePayload is the JSON wire form of a PairReport.
	WirePayload = core.WirePayload
)

// ErrIncompatibleState reports an aggregator state envelope whose
// fingerprint does not match the protocol trying to restore or merge it —
// the durability/federation layer's refusal to fold in state that would
// calibrate wrongly. Every Aggregator marshals to such an envelope via
// Protocol.MarshalAggregator; Protocol.UnmarshalAggregator is the verified
// inverse.
var ErrIncompatibleState = core.ErrIncompatibleState

// NewProtocol vends the matched client/server halves of a canonical
// framework ("hec", "ptj", "pts" or "ptscp"; separators and case are
// ignored, so "PTS-CP" works) over c classes and d items at budget eps.
// split is the label-budget fraction ε₁/ε for pts and ptscp. The composite
// form "pts+<item>" (item one of oue, sue, olh, grr, adaptive) selects PTS
// over a named item mechanism and survives a trip through a collection
// server's /config.
func NewProtocol(name string, c, d int, eps, split float64) (*Protocol, error) {
	return core.NewProtocol(name, c, d, eps, split)
}

// NewPTSProtocolWithItem vends the PTS halves over an item mechanism
// factory. For mechanisms with a name ("pts+olh" etc.) prefer NewProtocol,
// whose protocols are reconstructible from their name by collection
// clients; factory-built protocols with other names work in-process only.
func NewPTSProtocolWithItem(name string, c, d int, eps, split float64, item ItemMechanismFactory) (*Protocol, error) {
	return core.NewPTSProtocolWithItem(name, c, d, eps, split, item)
}

// ProtocolNames lists the canonical framework names NewProtocol accepts.
func ProtocolNames() []string { return core.ProtocolNames() }

// Perturbation mechanisms (Section IV).
type (
	// VP is the validity perturbation mechanism.
	VP = core.VP
	// VPAccumulator aggregates VP reports (flag-set reports are dropped).
	VPAccumulator = core.VPAccumulator
	// CP is the correlated perturbation mechanism.
	CP = core.CP
	// CPReport is one correlated-perturbation report.
	CPReport = core.CPReport
	// CPAccumulator aggregates CP reports with the Eq. (4) calibration.
	CPAccumulator = core.CPAccumulator
)

// NewVP builds a validity perturbation mechanism over d items with budget
// eps.
func NewVP(d int, eps float64) (*VP, error) { return core.NewVP(d, eps) }

// NewCP builds a correlated perturbation mechanism over c classes and d
// items with total budget eps and label-budget fraction split.
func NewCP(c, d int, eps, split float64) (*CP, error) { return core.NewCP(c, d, eps, split) }

// Single-value LDP frequency oracles (the substrate of Section II-B).
type (
	// Mechanism is a single-value ε-LDP frequency oracle.
	Mechanism = fo.Mechanism
	// Accumulator aggregates oracle reports into unbiased estimates.
	Accumulator = fo.Accumulator
	// Report is one perturbed oracle report.
	Report = fo.Report
)

// NewGRR builds Generalized Randomized Response over domain d.
func NewGRR(d int, eps float64) (Mechanism, error) { return fo.NewGRR(d, eps) }

// NewOUE builds Optimized Unary Encoding over domain d.
func NewOUE(d int, eps float64) (Mechanism, error) { return fo.NewOUE(d, eps) }

// NewSUE builds Symmetric Unary Encoding (basic RAPPOR) over domain d.
func NewSUE(d int, eps float64) (Mechanism, error) { return fo.NewSUE(d, eps) }

// NewOLH builds Optimal Local Hashing over domain d.
func NewOLH(d int, eps float64) (Mechanism, error) { return fo.NewOLH(d, eps) }

// NewAdaptive builds the adaptive GRR/OUE selector of Wang et al., the
// paper's default single-value mechanism.
func NewAdaptive(d int, eps float64) (Mechanism, error) { return fo.NewAdaptive(d, eps) }

// Top-k item mining (Section VI-B).
type (
	// Miner is a multi-class top-k mining framework.
	Miner = topk.Miner
	// MinerOptions toggles the paper's optimizations (Table III ablation).
	MinerOptions = topk.Options
	// MinerResult is the per-class mined ranking.
	MinerResult = topk.Result
)

// BaselineOptions returns the unoptimized miner configuration (PEM buckets,
// random substitution, no global phase, no CP).
func BaselineOptions() MinerOptions { return topk.Baseline() }

// OptimizedOptions returns the paper's full configuration
// (Shuffling+VP+CP with global candidates, a=0.2, b=2, ε₁=ε₂=ε/2).
func OptimizedOptions() MinerOptions { return topk.Optimized() }

// NewHECMiner builds the HEC top-k miner.
func NewHECMiner(opt MinerOptions) Miner { return topk.NewHEC(opt) }

// NewPTJMiner builds the PTJ top-k miner.
func NewPTJMiner(opt MinerOptions) Miner { return topk.NewPTJ(opt) }

// NewPTSMiner builds the PTS top-k miner (Algorithms 1 and 2).
func NewPTSMiner(opt MinerOptions) Miner { return topk.NewPTS(opt) }

// Interactive mining sessions: the round-based client/server decomposition
// of the miners. A SessionPlanner (server half) broadcasts per-round
// candidate-space configs and absorbs one-round reports; a RoundEncoder
// (client half) perturbs one user's pair into a report for exactly that
// round. Every Miner's Mine is a thin offline loop over these halves, and
// internal/collect serves them over HTTP (/topk/sessions).
type (
	// SessionPlanner owns one mining session's round state.
	SessionPlanner = topk.Planner
	// SessionParams fully determines a mining session.
	SessionParams = topk.SessionParams
	// RoundConfig is one round's broadcast.
	RoundConfig = topk.RoundConfig
	// RoundReport is one user's one-round answer.
	RoundReport = topk.RoundReport
	// RoundEncoder is the client half for one round's broadcast.
	RoundEncoder = topk.RoundEncoder
)

// NewMiningSession plans an interactive mining session (server half).
func NewMiningSession(p SessionParams) (*SessionPlanner, error) { return topk.NewSession(p) }

// NewRoundEncoder builds the client half for one round's broadcast.
func NewRoundEncoder(cfg *RoundConfig) (*RoundEncoder, error) { return topk.NewRoundEncoder(cfg) }

// RunMiningSession drives a session to completion in-process with the
// canonical per-user generators — the offline equivalent of a served
// session.
func RunMiningSession(pl *SessionPlanner, pairs []Pair) (*MinerResult, error) {
	return topk.RunSession(pl, pairs)
}

// MiningUserRand returns user i's canonical perturbation generator for a
// session seed; served clients and the offline path share it.
func MiningUserRand(session uint64, i int) *Rand { return topk.UserRand(session, i) }
