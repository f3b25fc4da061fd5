package collect

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/xrand"
)

// MeanClient perturbs (label, value) pairs locally and submits them to a
// collection server's mean tier. The raw value never leaves the client: it
// runs the real client half (mean.Encoder) of the numeric protocol the
// server advertises at /mean/config, so the same MeanClient speaks every
// mean framework. Submissions can be immediate (SubmitBatch) or buffered
// (Buffer + Flush, with the same failure semantics as the frequency
// Client's — both are the one buffered batch client in client.go).
//
// Every submission names the user's canonical index: HEC-Mean derives its
// partition group from it, and a served collection fed the same
// (value, index) stream in the same encode order as an offline
// Estimator.Estimate pass produces bit-identical estimates.
//
// A MeanClient is not safe for concurrent use; run one per goroutine.
type MeanClient struct {
	batchClient[WireMeanReport]
	proto *core.NumericProtocol
	enc   mean.Encoder
	rng   *xrand.Rand
	cfg   WireMeanConfig
}

// FetchMeanProtocol reads the mean round configuration a server advertises
// at baseURL/mean/config and reconstructs the matching numeric protocol.
// A server without the mean tier answers 404, which surfaces as
// ErrTierNotServed. It is the single place the config→protocol rules live,
// shared by NewMeanClient and by peers joining a federation tier
// (cmd/mcimedge).
func FetchMeanProtocol(baseURL string, hc *http.Client) (*core.NumericProtocol, WireMeanConfig, error) {
	var cfg WireMeanConfig
	if err := fetchTierConfig(baseURL, hc, "/mean/config", "mean ", &cfg); err != nil {
		return nil, cfg, err
	}
	proto, err := core.NewNumericProtocol(cfg.Protocol, cfg.Classes, cfg.Epsilon, cfg.Split)
	if err != nil {
		return nil, cfg, fmt.Errorf("collect: server mean protocol: %w", err)
	}
	return proto, cfg, nil
}

// NewMeanClient fetches the server's mean configuration from baseURL and
// prepares the matching local encoder seeded with seed. It takes the same
// ClientOptions as NewClient, applied before the configuration fetch, so
// WithTenant reroutes the fetch itself.
func NewMeanClient(baseURL string, hc *http.Client, seed uint64, opts ...ClientOption) (*MeanClient, error) {
	c := &MeanClient{batchClient: newBatchClient[WireMeanReport](baseURL, hc, opts), rng: xrand.New(seed)}
	proto, cfg, err := FetchMeanProtocol(c.base, c.http)
	if err != nil {
		return nil, err
	}
	c.proto, c.enc, c.cfg = proto, proto.Encoder(), cfg
	if err := c.bind("/mean/reports", "mean ", cfg.MaxBodyBytes, cfg.Wire, proto.AppendBinaryMeanBatch); err != nil {
		return nil, err
	}
	return c, nil
}

// Config returns the server-side mean round parameters the client fetched
// at construction.
func (c *MeanClient) Config() WireMeanConfig { return c.cfg }

// Protocol returns the numeric protocol the client encodes for.
func (c *MeanClient) Protocol() *core.NumericProtocol { return c.proto }

// perturb runs the protocol's client half locally and encodes the result
// for the wire.
func (c *MeanClient) perturb(user int, v mean.Value) WireMeanReport {
	return c.proto.EncodeMeanReport(c.enc.Encode(v, user, c.rng))
}

// SubmitBatch perturbs every value — the user at index i of vs has
// canonical index firstUser+i — and ships the whole batch as one
// POST /mean/reports request, returning the server's acknowledgement.
func (c *MeanClient) SubmitBatch(firstUser int, vs []mean.Value) (*WireBatchAck, error) {
	wires := make([]WireMeanReport, len(vs))
	for i, v := range vs {
		wires[i] = c.perturb(firstUser+i, v)
	}
	return c.postBatch(wires)
}

// Buffer perturbs the value for the user with the given canonical index
// and appends the report to the local batch buffer, flushing automatically
// when BatchSize reports have accumulated. Call Flush after the last
// Buffer to ship the remainder.
func (c *MeanClient) Buffer(user int, v mean.Value) error { return c.buffer(c.perturb(user, v)) }

// Estimates fetches the mean tier's current calibrated means and class
// sizes.
func (c *MeanClient) Estimates() (*WireMeanEstimates, error) {
	var est WireMeanEstimates
	if err := c.getJSON("/mean/estimates", "mean estimates", &est); err != nil {
		return nil, err
	}
	return &est, nil
}
