package topk

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/state"
	"repro/internal/xrand"
)

// This file is the server half of interactive mining. A Planner owns one
// session's round state — candidate space layouts (and the seed that
// shuffles them), the user→round quota schedule, per-round budget shares,
// prune/fork decisions, the pts CP switch and the final ranking — and
// advances it one round at a time as clients' RoundReports arrive. The
// offline Miner.Mine entry points are thin loops over a Planner and the
// RoundEncoder (RunSession), so a served session that feeds the same
// reports in any order reproduces the offline result bit-identically.

// SessionParams fully determines a mining session: the same params (and
// the same per-user generators, see UserRand) always yield the same
// rankings, which is what lets a restarted server replay a session's
// reports and resume it mid-flight.
type SessionParams struct {
	// Framework is the mining framework: hec, ptj or pts.
	Framework string `json:"framework"`
	// Classes × Items is the pair domain.
	Classes int `json:"classes"`
	Items   int `json:"items"`
	// K is the per-class ranking size to mine.
	K int `json:"k"`
	// Eps is the total per-user privacy budget ε.
	Eps float64 `json:"eps"`
	// Users is the population size the session is planned for; it fixes
	// the per-round quotas (contiguous near-equal groups, one round per
	// user).
	Users int `json:"users"`
	// Seed drives every server-side draw (space layouts) and, through
	// UserSeed, the canonical per-user perturbation streams.
	Seed uint64 `json:"seed"`
	// Opt toggles the paper's optimizations; zero-value numeric fields
	// take the paper's defaults.
	Opt Options `json:"options"`
}

// validate normalizes the params (canonical framework name, defaulted
// options) and checks the domains.
func (p *SessionParams) validate() error {
	fw, err := canonicalFramework(p.Framework)
	if err != nil {
		return err
	}
	p.Framework = fw
	p.Opt = p.Opt.withDefaults()
	if p.Classes < 1 {
		return fmt.Errorf("topk: session with %d classes", p.Classes)
	}
	if p.Items < 2 {
		return fmt.Errorf("topk: item domain %d too small", p.Items)
	}
	if p.K < 1 {
		return fmt.Errorf("topk: non-positive k %d", p.K)
	}
	if !(p.Eps > 0) {
		return fmt.Errorf("topk: non-positive epsilon %v", p.Eps)
	}
	if p.Users < 0 {
		return fmt.Errorf("topk: negative user count %d", p.Users)
	}
	return nil
}

// ErrSessionDone reports an operation against a session that has already
// produced its final ranking.
var ErrSessionDone = errors.New("topk: session complete")

// RoundMismatchError reports a report submitted for a round other than the
// live one — typically a straggler posting to a round that sealed while
// the report was in flight. Live is what the client should fetch next.
type RoundMismatchError struct {
	Got, Live int
}

func (e *RoundMismatchError) Error() string {
	return fmt.Sprintf("topk: report for round %d, live round is %d", e.Got, e.Live)
}

// Planner is the server half of one interactive mining session
// (the SessionPlanner): it broadcasts round configs, absorbs one-round
// reports, and on Advance prunes candidate spaces, hands global candidates
// off to per-class spaces (pts), decides the CP switch, and ranks the
// final round. A Planner is not safe for concurrent use; callers serialize
// access (the collection server holds one mutex per session).
type Planner struct {
	p     SessionParams
	rand  *xrand.Rand
	label *fo.GRR // pts label mechanism

	iters  int   // total rounds
	itF    int   // pts: leading global (Algorithm 1) rounds
	quotas []int // reports per round

	round int
	done  bool

	global space   // pts global-phase space (nil once forked or absent)
	spaces []space // per-class spaces (hec, pts phase 2); [1]space for ptj

	// layout and live are the current round, each built once when the round
	// opens: the wire shape reports validate against, and the count tables —
	// one per active space, plus the labels — they are counted into. After
	// the final round live stays as that round's counts (they are part of
	// the marshaled state); a session restored done from a record without
	// them has none.
	layout *RoundLayout
	live   *RoundPartial

	// pts: perturbed-label counts over the sealed rounds; the live round's
	// are in live until Advance merges them in.
	labels  state.Table
	cpFlags []bool // pts: final-round CP switch, fixed when it opens

	result *Result
}

// NewSession plans a mining session. The returned Planner is at round 0
// with no reports absorbed.
func NewSession(p SessionParams) (*Planner, error) {
	pl, err := newPlannerSkeleton(p)
	if err != nil {
		return nil, err
	}
	c, d, k := pl.p.Classes, pl.p.Items, pl.p.K
	opt := pl.p.Opt
	switch pl.p.Framework {
	case "hec":
		pl.spaces = make([]space, c)
		for cl := 0; cl < c; cl++ {
			pl.spaces[cl] = newSpace(d, 4*k, opt.Shuffling, pl.rand)
		}
	case "ptj":
		pl.spaces = []space{newSpace(c*d, 4*k*c, opt.Shuffling, pl.rand)}
	case "pts":
		pl.labels = state.NewTable(labelShape(c))
		if pl.itF > 0 {
			pl.global = newSpace(d, 4*k*c, opt.Shuffling, pl.rand)
		} else {
			pl.spaces = make([]space, c)
			for cl := 0; cl < c; cl++ {
				pl.spaces[cl] = newSpace(d, 4*k, opt.Shuffling, pl.rand)
			}
		}
	}
	pl.openRound()
	return pl, nil
}

// newPlannerSkeleton validates params and computes everything that is a
// pure function of them — the iteration schedule, quotas and label
// mechanism — without drawing from the session rand or laying out spaces.
// Shared by NewSession and UnmarshalSession.
func newPlannerSkeleton(p SessionParams) (*Planner, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	pl := &Planner{p: p, rand: xrand.New(p.Seed)}
	c, d, k := p.Classes, p.Items, p.K
	opt := p.Opt
	switch p.Framework {
	case "hec":
		pl.iters = iterationsFor(d, 4*k, opt.Shuffling)
	case "ptj":
		pl.iters = iterationsFor(c*d, 4*k*c, opt.Shuffling)
	case "pts":
		eps1 := p.Eps * opt.Split
		label, err := fo.NewGRR(c, eps1)
		if err != nil {
			return nil, err
		}
		pl.label = label
		// Iteration schedule: with shuffling the pool halves every round
		// in both phases, so the count depends only on the per-class 4k
		// target; with PEM and a global phase the run starts from the
		// finer 4kc-prefix layout. IT_f = IT/2 global rounds (Algorithm
		// 1), the rest per-class (Algorithm 2). Global phases that would
		// leave no per-class round are disabled.
		pl.iters = iterationsFor(d, 4*k, opt.Shuffling)
		if opt.Global {
			if !opt.Shuffling {
				gIters := iterationsFor(d, 4*k*c, opt.Shuffling)
				if gIters >= 2 {
					pl.iters = gIters
					pl.itF = gIters / 2
				}
			} else if pl.iters >= 2 {
				pl.itF = pl.iters / 2
			}
		}
	}
	pl.quotas = make([]int, pl.iters)
	if pl.p.Framework == "pts" {
		nGlobal := 0
		if pl.itF > 0 {
			nGlobal = int(float64(p.Users) * opt.A)
		}
		gB := groupBounds(nGlobal, max(pl.itF, 1))
		for t := 0; t < pl.itF; t++ {
			pl.quotas[t] = gB[t+1] - gB[t]
		}
		cB := groupBounds(p.Users-nGlobal, pl.iters-pl.itF)
		for t := pl.itF; t < pl.iters; t++ {
			pl.quotas[t] = cB[t-pl.itF+1] - cB[t-pl.itF]
		}
	} else {
		b := groupBounds(p.Users, pl.iters)
		for t := 0; t < pl.iters; t++ {
			pl.quotas[t] = b[t+1] - b[t]
		}
	}
	return pl, nil
}

// Params returns the session's (normalized) parameters.
func (pl *Planner) Params() SessionParams { return pl.p }

// Rounds returns the total round count of the session.
func (pl *Planner) Rounds() int { return pl.iters }

// Round returns the live round index (== Rounds once done).
func (pl *Planner) Round() int { return pl.round }

// Received returns how many reports the live round has absorbed (0 once
// done).
func (pl *Planner) Received() int {
	if pl.done {
		return 0
	}
	return pl.live.Received()
}

// Quota returns the live round's report quota (0 once done).
func (pl *Planner) Quota() int {
	if pl.done {
		return 0
	}
	return pl.quotas[pl.round]
}

// Done reports whether the final ranking has been produced.
func (pl *Planner) Done() bool { return pl.done }

// activeSpaces returns the spaces reports of the live round land in.
func (pl *Planner) activeSpaces() []space {
	if pl.p.Framework == "pts" && pl.round < pl.itF {
		return []space{pl.global}
	}
	return pl.spaces
}

// openLive builds the layout and the empty aggregate of the live round. The
// layout is the one clients derive from the round's broadcast.
func (pl *Planner) openLive() {
	l, err := LayoutOf(pl.Config())
	if err != nil {
		panic(err) // a planner's own broadcast always lays out
	}
	pl.layout, pl.live = l, NewRoundPartial(l)
}

// openRound prepares the (newly) live round and, when the final pts round
// opens, fixes the per-class CP switch from the label statistics of all
// earlier rounds — the broadcastable form of Algorithm 2 line 8: correlated
// perturbation only where the amount routed to the class has not exceeded b
// times its estimated true size.
func (pl *Planner) openRound() {
	pl.openLive()
	if pl.p.Framework == "pts" && pl.p.Opt.CP && pl.round == pl.iters-1 {
		pl.cpFlags = make([]bool, pl.p.Classes)
		for cl := range pl.cpFlags {
			pl.cpFlags[cl] = cpFeasible(pl.labels.Cells[cl], pl.labels.N, pl.label, pl.p.Opt.B)
		}
	}
}

// Config returns the live round's broadcast, or nil once the session is
// done. The space descriptions are deep copies; callers may serialize them
// concurrently with later Absorb calls on the planner.
func (pl *Planner) Config() *RoundConfig {
	if pl.done {
		return nil
	}
	cfg := &RoundConfig{
		Framework: pl.p.Framework,
		Classes:   pl.p.Classes,
		Items:     pl.p.Items,
		Round:     pl.round,
		Rounds:    pl.iters,
		Final:     pl.round == pl.iters-1,
		Quota:     pl.quotas[pl.round],
		VP:        pl.p.Opt.VP,
		Eps:       pl.p.Eps,
	}
	if pl.p.Framework == "pts" {
		eps1 := pl.p.Eps * pl.p.Opt.Split
		cfg.Eps = pl.p.Eps - eps1
		cfg.EpsLabel = eps1
		cfg.Global = pl.round < pl.itF
		if pl.cpFlags != nil && cfg.Final {
			cfg.CP = append([]bool(nil), pl.cpFlags...)
		}
	}
	active := pl.activeSpaces()
	cfg.Spaces = make([]SpaceDesc, len(active))
	for i, sp := range active {
		cfg.Spaces[i] = sp.Desc()
	}
	return cfg
}

// CheckReport validates a report against the live round without mutating
// anything: round match (RoundMismatchError / ErrSessionDone otherwise),
// class range and bit-vector shape. A report that passes is safe to
// Absorb.
func (pl *Planner) CheckReport(rep RoundReport) error {
	if pl.done {
		return ErrSessionDone
	}
	return pl.layout.CheckReport(rep)
}

// Absorb folds one report into the live round. The quota is advisory —
// the planner accepts extra reports; drivers advance on quota.
func (pl *Planner) Absorb(rep RoundReport) error {
	if pl.done {
		return ErrSessionDone
	}
	return pl.live.Absorb(rep)
}

// Advance seals the live round: the final round ranks (the session is done
// afterwards), earlier rounds prune their spaces, and the last global pts
// round additionally forks the surviving global candidates into the
// per-class spaces.
func (pl *Planner) Advance() error {
	if pl.done {
		return ErrSessionDone
	}
	c, k := pl.p.Classes, pl.p.K
	if pl.p.Framework == "pts" {
		// Seal the round's label counts into the all-rounds totals (the other
		// frameworks keep none).
		if err := pl.labels.Merge(&pl.live.labels); err != nil {
			return err
		}
	}
	if pl.round == pl.iters-1 {
		pl.finishFinal()
		return nil
	}
	if pl.p.Framework == "pts" && pl.round < pl.itF {
		pl.global.Prune(pl.live.scores(0), pruneKeep(pl.global, 2*k*c), pl.rand)
		if pl.round == pl.itF-1 {
			// Global-to-per-class hand-off: every class starts from the
			// surviving global candidates.
			pl.spaces = make([]space, c)
			for cl := 0; cl < c; cl++ {
				pl.spaces[cl] = pl.global.Fork(4*k, pl.rand)
			}
			pl.global = nil
		}
	} else {
		keep := 2 * k
		if pl.p.Framework == "ptj" {
			keep = 2 * k * c
		}
		for i, sp := range pl.spaces {
			sp.Prune(pl.live.scores(i), pruneKeep(sp, keep), pl.rand)
		}
	}
	pl.round++
	pl.openRound()
	return nil
}

// finishFinal ranks the final round's singleton buckets into the result.
func (pl *Planner) finishFinal() {
	c, k := pl.p.Classes, pl.p.K
	res := &Result{PerClass: make([][]int, c), UsedCP: make([]bool, c)}
	if pl.p.Framework == "ptj" {
		// Rank the full final pool of joint pairs, then project onto
		// per-class lists.
		d := pl.p.Items
		for _, joint := range rankFinal(pl.spaces[0], pl.live.scores(0), 4*k*c) {
			cl, item := joint/d, joint%d
			if len(res.PerClass[cl]) < k {
				res.PerClass[cl] = append(res.PerClass[cl], item)
			}
		}
	} else {
		for cl := 0; cl < c; cl++ {
			res.PerClass[cl] = rankFinal(pl.spaces[cl], pl.live.scores(cl), k)
		}
		if pl.cpFlags != nil {
			copy(res.UsedCP, pl.cpFlags)
		}
	}
	pl.result = res
	pl.round = pl.iters
	pl.done = true
}

// Result returns the mined rankings once the session is done.
func (pl *Planner) Result() (*Result, error) {
	if !pl.done {
		return nil, fmt.Errorf("topk: session at round %d of %d, no result yet", pl.round, pl.iters)
	}
	return pl.result, nil
}

// RunSession drives a planner to completion in-process: pairs are consumed
// in order (pairs[i] is user i, perturbing with UserRand(seed, i)), each
// round absorbs exactly its quota, and the session advances on quota —
// precisely what a served session does over HTTP, which is why the two are
// bit-identical. len(pairs) must equal the session's planned user count.
func RunSession(pl *Planner, pairs []core.Pair) (*Result, error) {
	if len(pairs) != pl.p.Users {
		return nil, fmt.Errorf("topk: %d pairs for a session planned over %d users", len(pairs), pl.p.Users)
	}
	user := 0
	for !pl.Done() {
		cfg := pl.Config()
		enc, err := NewRoundEncoder(cfg)
		if err != nil {
			return nil, err
		}
		for j := 0; j < cfg.Quota; j++ {
			rep, err := enc.Encode(pairs[user], UserRand(pl.p.Seed, user))
			if err != nil {
				return nil, err
			}
			if err := pl.Absorb(rep); err != nil {
				return nil, err
			}
			user++
		}
		if err := pl.Advance(); err != nil {
			return nil, err
		}
	}
	return pl.Result()
}

// ---------------------------------------------------------------------------
// Session state serialization.
// ---------------------------------------------------------------------------

// sessionFingerprint tags marshaled session state inside the
// internal/state envelope.
const sessionFingerprint = "mcim/topk-session/v1"

// plannerState is the gob payload of a marshaled session: the params plus
// every piece of dynamic state. The schedule (rounds, quotas) is a pure
// function of the params and is recomputed on restore.
type plannerState struct {
	Params      SessionParams
	Round       int
	Received    int
	Done        bool
	Rand        []byte
	Global      *SpaceDesc
	Spaces      []SpaceDesc
	Aggs        []aggState
	LabelRouted []int64
	LabelTotal  int64
	CPFlags     []bool
	Result      *Result
}

type aggState struct {
	VP      bool
	Buckets int
	Counts  []int64
	N       int
	Kept    int
	Dropped int
}

// MarshalBinary serializes the full session state — mid-round aggregates
// included — into a fingerprinted internal/state envelope, so a collection
// server checkpoint covers in-flight sessions. Restoring and finishing the
// session is bit-identical to finishing the live planner.
func (pl *Planner) MarshalBinary() ([]byte, error) {
	rnd, err := pl.rand.MarshalBinary()
	if err != nil {
		return nil, err
	}
	st := plannerState{
		Params:   pl.p,
		Round:    pl.round,
		Received: pl.Received(),
		Done:     pl.done,
		Rand:     rnd,
		CPFlags:  pl.cpFlags,
		Result:   pl.result,
	}
	if pl.p.Framework == "pts" {
		// The marshaled label statistics are the all-rounds totals, the live
		// round included until it seals.
		labels := pl.labels
		if !pl.done {
			labels = labels.Clone()
			if err := labels.Merge(&pl.live.labels); err != nil {
				return nil, err
			}
		}
		st.LabelRouted, st.LabelTotal = labels.Cells, labels.N
	}
	if pl.global != nil {
		d := pl.global.Desc()
		st.Global = &d
	}
	if pl.spaces != nil {
		st.Spaces = make([]SpaceDesc, len(pl.spaces))
		for i, sp := range pl.spaces {
			st.Spaces[i] = sp.Desc()
		}
	}
	if pl.live != nil {
		st.Aggs = make([]aggState, len(pl.live.spaces))
		for i, t := range pl.live.spaces {
			counts := pl.live.buckets(i)
			as := aggState{VP: pl.p.Opt.VP, Buckets: len(counts), Counts: counts, N: int(t.N)}
			if as.VP {
				as.Dropped = int(t.Cells[len(counts)])
				as.Kept = as.N - as.Dropped
			}
			st.Aggs[i] = as
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return state.Encode(sessionFingerprint, buf.Bytes()), nil
}

// UnmarshalSession restores a session serialized by MarshalBinary,
// validating the envelope and the params, and refusing dynamic state the
// session could not have reached (see restore). Corrupt input errors; it
// never panics.
func UnmarshalSession(data []byte) (*Planner, error) {
	fp, payload, err := state.Decode(data)
	if err != nil {
		return nil, err
	}
	if fp != sessionFingerprint {
		return nil, fmt.Errorf("topk: state fingerprint %q, want %q", fp, sessionFingerprint)
	}
	var st plannerState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("topk: decode session state: %w", err)
	}
	pl, err := newPlannerSkeleton(st.Params)
	if err != nil {
		return nil, err
	}
	if pl.p != st.Params {
		return nil, fmt.Errorf("topk: session params %+v are not in normal form", st.Params)
	}
	if err := pl.rand.UnmarshalBinary(st.Rand); err != nil {
		return nil, err
	}
	if err := pl.restore(&st); err != nil {
		return nil, err
	}
	return pl, nil
}

// restore installs a record's dynamic state on a planner fresh from
// newPlannerSkeleton. A done session that finished live still holds its
// final round's spaces and counts, so a done record is restored as that
// round and then closed; one restored done from a record without them
// carries none.
func (pl *Planner) restore(st *plannerState) error {
	pl.round = st.Round
	if st.Done {
		if st.Result == nil || len(st.Result.PerClass) != pl.p.Classes || len(st.Result.UsedCP) != pl.p.Classes {
			return fmt.Errorf("topk: completed session without a %d-class result", pl.p.Classes)
		}
		if st.Round != pl.iters || st.Received != 0 {
			return fmt.Errorf("topk: completed session at round %d with %d live reports", st.Round, st.Received)
		}
		pl.round = pl.iters - 1
	} else if st.Result != nil || st.Round < 0 || st.Round >= pl.iters {
		return fmt.Errorf("topk: open session at round %d of %d, or with a result", st.Round, pl.iters)
	}
	bare := st.Done && len(st.Spaces) == 0 && len(st.Aggs) == 0
	inGlobalPhase := pl.p.Framework == "pts" && pl.round < pl.itF
	wantSpaces := 0
	if !inGlobalPhase && !bare {
		wantSpaces = pl.p.Classes
		if pl.p.Framework == "ptj" {
			wantSpaces = 1
		}
	}
	if (st.Global != nil) != inGlobalPhase || len(st.Spaces) != wantSpaces {
		return fmt.Errorf("topk: round %d state carries %d spaces (global %v), want %d (global %v)",
			pl.round, len(st.Spaces), st.Global != nil, wantSpaces, inGlobalPhase)
	}
	var err error
	if inGlobalPhase {
		if pl.global, err = pl.restoreSpace(*st.Global, 4*pl.p.K); err != nil {
			return err
		}
	}
	if wantSpaces > 0 {
		pl.spaces = make([]space, wantSpaces)
		for i, sd := range st.Spaces {
			if pl.spaces[i], err = pl.restoreSpace(sd, sd.Buckets()); err != nil {
				return err
			}
		}
	}
	if pl.p.Framework == "pts" {
		if pl.labels, err = tableOf(labelShape(pl.p.Classes), st.LabelTotal, st.LabelRouted); err != nil {
			return fmt.Errorf("topk: label statistics: %w", err)
		}
	} else if len(st.LabelRouted) != 0 || st.LabelTotal != 0 {
		return fmt.Errorf("topk: %s session with label statistics", pl.p.Framework)
	}
	wantCP := pl.p.Framework == "pts" && pl.p.Opt.CP && pl.round == pl.iters-1
	if st.CPFlags != nil && (!wantCP || len(st.CPFlags) != pl.p.Classes) || wantCP && st.CPFlags == nil && !bare {
		return fmt.Errorf("topk: %d CP flags in round %d of %d (CP %v)", len(st.CPFlags), pl.round, pl.iters, pl.p.Opt.CP)
	}
	pl.cpFlags = st.CPFlags
	if !bare {
		// The restored label totals already include the live round's (they
		// are not marshaled apart), so the live labels restart at zero.
		pl.openLive()
		if err := pl.live.restore(st.Aggs); err != nil {
			return err
		}
		if n := pl.live.Received(); !st.Done && n != st.Received {
			return fmt.Errorf("topk: round aggregates hold %d reports, the record %d", n, st.Received)
		}
	}
	if st.Done {
		pl.round, pl.done, pl.result = pl.iters, true, st.Result
	}
	return nil
}

// restoreSpace rebuilds a recorded space live in the planner's round and
// refuses one the session could not have laid out: another kind or domain,
// or one too coarse to reach singleton buckets, which the final round
// ranks, in the prunes left. Each prune extends a prefix by a bit, or at
// least halves a shuffled pool in two or more buckets; want is the bucket
// count the space's candidates are ranked in.
func (pl *Planner) restoreSpace(sd SpaceDesc, want int) (space, error) {
	domain := pl.p.Items
	if pl.p.Framework == "ptj" {
		domain *= pl.p.Classes
	}
	if (sd.Kind == SpaceShuffle) != pl.p.Opt.Shuffling || sd.Domain != domain {
		return nil, fmt.Errorf("topk: a %q space over %d items in a session over %d", sd.Kind, sd.Domain, domain)
	}
	sp, err := spaceFromDesc(sd)
	if err != nil {
		return nil, err
	}
	left, pool := pl.iters-1-pl.round, sp.PoolSize()
	reaches := sd.Length+left >= sd.TotalBits
	if sd.Kind == SpaceShuffle {
		want = min(want, sp.Buckets())
		reaches = pool <= want || want >= 2 && halvings(pool, want) <= left
	}
	if !reaches {
		return nil, fmt.Errorf("topk: %d candidates in %d buckets cannot be ranked in %d rounds", pool, sp.Buckets(), left)
	}
	return sp, nil
}

// restore fills a partial fresh from NewRoundPartial with a record's round
// aggregates. Each becomes its space's table, which must keep the table's
// invariants and agree with the record's counters: under VP kept and dropped
// reports add up to N and no bucket counts more reports than were kept;
// without VP both counters are 0.
func (p *RoundPartial) restore(aggs []aggState) error {
	if len(aggs) != len(p.spaces) {
		return fmt.Errorf("topk: state carries %d round aggregates, want %d", len(aggs), len(p.spaces))
	}
	for i, as := range aggs {
		if as.VP != p.layout.VP || as.Buckets != len(as.Counts) {
			return fmt.Errorf("topk: round aggregate %d does not match its space layout", i)
		}
		cells, kept := as.Counts, int64(as.N)
		if as.VP {
			cells, kept = append(cells, int64(as.Dropped)), kept-int64(as.Dropped)
		}
		t, err := tableOf(p.spaces[i].Shape, int64(as.N), cells)
		if err != nil {
			return fmt.Errorf("topk: round aggregate %d: %w", i, err)
		}
		switch {
		case as.VP && int64(as.Kept) != kept, !as.VP && (as.Kept != 0 || as.Dropped != 0):
			return fmt.Errorf("topk: round aggregate %d keeps %d and drops %d of %d reports", i, as.Kept, as.Dropped, as.N)
		case slices.Max(as.Counts) > kept:
			return fmt.Errorf("topk: round aggregate %d counts %d reports in a bucket, %d kept", i, slices.Max(as.Counts), kept)
		}
		p.spaces[i] = t
	}
	return nil
}

// tableOf builds a table of shape s over a record's counts, refusing any the
// table's invariants, or a negative count, rule out.
func tableOf(s state.Shape, n int64, cells []int64) (state.Table, error) {
	t := state.Table{Shape: s, N: n, Cells: cells}
	if len(cells) != s.Routes+s.Rows*s.Cols || len(cells) > 0 && slices.Min(cells) < 0 {
		return t, fmt.Errorf("topk: %d counts for a %v table, or a negative one", len(cells), s)
	}
	return t, t.Check()
}

// labelShape is the shape of a session's perturbed-label counts.
func labelShape(classes int) state.Shape {
	return state.Shape{Rows: 1, Cols: classes, OneHot: true}
}
