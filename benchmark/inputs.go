package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// Every input the server receives is generated here from the run's seed:
// perturb → encode → frame, through the same public functions a real client
// uses. Generation happens in set-up, never inside a timed window.

// goldenGamma spaces derived seeds by the SplitMix64 increment, so each
// frame (or session) draws from its own decorrelated generator and frames
// can be generated in parallel with a result that depends only on the seed.
const goldenGamma = 0x9e3779b97f4a7c15

func subSeed(seed uint64, i int) uint64 { return seed + uint64(i+1)*goldenGamma }

// parallelFor runs fn(i) for i in [0,n) on up to GOMAXPROCS goroutines and
// returns the first error.
func parallelFor(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// skewedPair draws one user's (class, item): classes uniform, items skewed
// towards the low indices (an item below a uniformly drawn ceiling), so the
// frequency estimates are not flat and the mining rounds have something to
// rank.
func skewedPair(r *xrand.Rand, classes, items int) core.Pair {
	return core.Pair{Class: r.Intn(classes), Item: r.Intn(1 + r.Intn(items))}
}

// genFreqFrames perturbs frames×perFrame users under p and packs them into
// binary 'F' frames.
func genFreqFrames(p *core.Protocol, seed uint64, frames, perFrame int) ([][]byte, error) {
	out := make([][]byte, frames)
	enc := p.Encoder()
	err := parallelFor(frames, func(i int) error {
		r := xrand.New(subSeed(seed, i))
		wires := make([]core.WirePayload, perFrame)
		for j := range wires {
			wires[j] = p.EncodeReport(enc.Encode(skewedPair(r, p.Classes(), p.Items()), r))
		}
		frame, err := p.AppendBinaryBatch(nil, wires)
		out[i] = frame
		return err
	})
	return out, err
}

// genMeanFrames perturbs frames×perFrame users' (class, value) pairs under
// np and packs them into binary 'M' frames. Class c's values sit around a
// centre spread over [−0.8, 0.8], so the classwise means differ.
func genMeanFrames(np *core.NumericProtocol, seed uint64, frames, perFrame int) ([][]byte, error) {
	out := make([][]byte, frames)
	enc := np.Encoder()
	c := np.Classes()
	err := parallelFor(frames, func(i int) error {
		r := xrand.New(subSeed(seed, i))
		wires := make([]core.WireMeanReport, perFrame)
		for j := range wires {
			cls := r.Intn(c)
			x := 0.2 * r.NormFloat64()
			if c > 1 {
				x += -0.8 + 1.6*float64(cls)/float64(c-1)
			}
			x = max(-1, min(1, x))
			wires[j] = np.EncodeMeanReport(enc.Encode(mean.Value{Class: cls, X: x}, i*perFrame+j, r))
		}
		frame, err := np.AppendBinaryMeanBatch(nil, wires)
		out[i] = frame
		return err
	})
	return out, err
}

// sessionPlan is one top-k mining session prepared offline: the params the
// server is asked to run, every round's reports already perturbed, and the
// result the offline planner reached from exactly those reports.
type sessionPlan struct {
	params topk.SessionParams
	// totalRounds is the planner's round count; rounds holds only those
	// with a quota, which are the ones a client sees.
	totalRounds int
	rounds      []planRound
	result      *topk.Result
}

type planRound struct {
	layout  *topk.RoundLayout
	reports []topk.RoundReport
}

// sessionPairs is the population a session mines: user i holds pairs[i].
func sessionPairs(params topk.SessionParams, popSeed uint64) []core.Pair {
	pop := xrand.New(popSeed)
	pairs := make([]core.Pair, params.Users)
	for i := range pairs {
		pairs[i] = skewedPair(pop, params.Classes, params.Items)
	}
	return pairs
}

// genSessionPlan runs one session offline. The planner is deterministic in
// (params, reports), so a served session created with the same params and
// fed the same reports walks through the same rounds and must end at the
// same result; that is the correctness check of the top-k workload.
func genSessionPlan(params topk.SessionParams, popSeed uint64) (*sessionPlan, error) {
	pl, err := topk.NewSession(params)
	if err != nil {
		return nil, err
	}
	pairs := sessionPairs(params, popSeed)
	plan := &sessionPlan{params: pl.Params(), totalRounds: pl.Rounds()}
	user := 0
	for !pl.Done() {
		cfg := pl.Config()
		enc, err := topk.NewRoundEncoder(cfg)
		if err != nil {
			return nil, err
		}
		layout, err := topk.LayoutOf(cfg)
		if err != nil {
			return nil, err
		}
		reps := make([]topk.RoundReport, cfg.Quota)
		for j := range reps {
			if reps[j], err = enc.Encode(pairs[user], topk.UserRand(params.Seed, user)); err != nil {
				return nil, err
			}
			if err := pl.Absorb(reps[j]); err != nil {
				return nil, err
			}
			user++
		}
		if len(reps) > 0 { // the server skips empty rounds by itself
			plan.rounds = append(plan.rounds, planRound{layout: layout, reports: reps})
		}
		if err := pl.Advance(); err != nil {
			return nil, err
		}
	}
	if user != params.Users {
		return nil, fmt.Errorf("session consumed %d users, planned %d", user, params.Users)
	}
	plan.result, err = pl.Result()
	return plan, err
}

// packRound frames one round's reports for session sid, perFrame reports
// to a frame (the last may be shorter).
func packRound(sid string, rd planRound, perFrame int) ([][]byte, error) {
	var frames [][]byte
	for lo := 0; lo < len(rd.reports); lo += perFrame {
		hi := min(lo+perFrame, len(rd.reports))
		f, err := topk.AppendRoundFrame(nil, sid, rd.layout, rd.reports[lo:hi])
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}
