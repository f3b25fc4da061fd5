package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// DefaultBatchSize is the buffered client's auto-flush threshold. At the
// wire format's typical sparsity this keeps batch bodies well under the
// server's default size cap while amortizing per-request overhead over
// hundreds of reports.
const DefaultBatchSize = 256

// DefaultRetries is how many times a submission answered with a 5xx is
// retried (after the initial attempt) before the error surfaces.
const DefaultRetries = 3

// DefaultRetryBase is the first retry's backoff delay; each subsequent
// retry doubles it, capped at maxRetryDelayFactor times the base.
const DefaultRetryBase = 100 * time.Millisecond

// maxRetryDelayFactor caps the exponential backoff at base<<4 (16× the
// base delay) so a long outage retries steadily instead of stretching
// toward infinity.
const maxRetryDelayFactor = 16

// clientConfig is what the ClientOptions set — the same knobs for both
// report clients.
type clientConfig struct {
	tenant    string
	token     string
	batchSize int
	binary    bool
	retries   int
	retryBase time.Duration
}

// ClientOption configures a Client or a MeanClient.
type ClientOption func(*clientConfig)

// WithBatchSize sets the buffered auto-flush threshold (reports per batch
// request). n < 1 restores DefaultBatchSize.
func WithBatchSize(n int) ClientOption {
	return func(c *clientConfig) {
		if n < 1 {
			n = DefaultBatchSize
		}
		c.batchSize = n
	}
}

// WithBinary makes batch submissions use the binary wire frame instead of
// JSON — roughly an order of magnitude smaller and cheaper to decode for
// unary-encoded protocols. NewClient and NewMeanClient fail when the
// server's tier config does not advertise "binary" in its wire list
// (servers predating the format speak JSON only). Single-report Submit
// stays JSON.
func WithBinary(on bool) ClientOption {
	return func(c *clientConfig) { c.binary = on }
}

// WithRetry tunes the client's handling of 5xx responses: a submission the
// server answers with a server error is retried up to retries times with
// exponential backoff starting at base (doubled per attempt, capped at 16×
// base). A 5xx means the server definitively did not ingest the request,
// so retrying cannot double-count. retries = 0 disables retrying; base < 1
// restores DefaultRetryBase. 4xx responses and transport errors are never
// retried — the former need a fix, the latter may have been ingested.
func WithRetry(retries int, base time.Duration) ClientOption {
	return func(c *clientConfig) {
		if retries < 0 {
			retries = 0
		}
		if base < 1 {
			base = DefaultRetryBase
		}
		c.retries = retries
		c.retryBase = base
	}
}

// encodeBufPool recycles binary frame encode buffers across flushes and
// across clients, so a steady producer allocates no per-batch body.
var encodeBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// batchClient is the buffered submission half of both report clients:
// target (base URL, tenant routing, bearer token), batch encoding, 5xx
// retry policy and the pending buffer. Client and MeanClient embed it and
// add only what differs per tier — how a user's datum is perturbed into a
// wire report W, and the tier's config and estimates types.
type batchClient[W any] struct {
	clientConfig
	base  string
	http  *http.Client
	sleep func(time.Duration) // injectable for tests

	// Bound once the tier's config is fetched (see bind).
	path         string // the tier's batch endpoint under base
	tag          string // qualifies error messages ("" or "mean ")
	maxBody      int64  // the server's advertised body cap
	appendBinary func(dst []byte, wires []W) ([]byte, error)

	pending []W
}

// newBatchClient applies opts over the defaults and resolves the target.
// Options are applied before any fetch, so WithTenant reroutes the tier's
// configuration fetch itself.
func newBatchClient[W any](baseURL string, hc *http.Client, opts []ClientOption) batchClient[W] {
	c := batchClient[W]{
		clientConfig: clientConfig{batchSize: DefaultBatchSize, retries: DefaultRetries, retryBase: DefaultRetryBase},
		base:         baseURL,
		sleep:        time.Sleep,
	}
	for _, opt := range opts {
		opt(&c.clientConfig)
	}
	if c.tenant != "" {
		c.base = TenantBaseURL(c.base, c.tenant)
	}
	c.http = BearerClient(hc, c.token)
	return c
}

// bind attaches the client to one tier's batch endpoint from the config it
// fetched; it fails when WithBinary was asked of a server that does not
// advertise the binary wire there.
func (c *batchClient[W]) bind(path, tag string, maxBody int64, wire []string, appendBinary func([]byte, []W) ([]byte, error)) error {
	c.path, c.tag, c.maxBody, c.appendBinary = path, tag, maxBody, appendBinary
	if c.binary && !wireSupports(wire, "binary") {
		return fmt.Errorf("collect: server %s does not advertise the binary wire format on %s (wire=%v)", c.base, path, wire)
	}
	return nil
}

// Client perturbs pairs locally and submits them to a collection server.
// The raw pair never leaves the client: it runs the real client half
// (core.Encoder) of the protocol the server advertises in /config, so the
// same Client speaks every framework. Submissions can be immediate
// (Submit, SubmitBatch) or buffered (Buffer + Flush), in which case
// perturbed reports accumulate locally and ship as one batch request per
// BatchSize reports.
//
// A Client is not safe for concurrent use; run one per goroutine (they are
// cheap — the protocol parameters are shared through the fetched config).
type Client struct {
	batchClient[WireReport]
	proto *core.Protocol
	enc   core.Encoder
	rng   *xrand.Rand
	cfg   WireConfig
}

// ErrTierNotServed reports a tier-config fetch the server answered with
// 404: the server is reachable but does not mount that tier (a mean-only
// server has no /config; a server without WithMean has no /mean/config).
// Callers use it to distinguish "tier genuinely absent" from transient
// failures worth retrying (cmd/mcimedge).
var ErrTierNotServed = errors.New("collect: server does not serve this tier")

// fetchTierConfig GETs one tier's config document (path under baseURL) into
// cfg. A 404 is ErrTierNotServed.
func fetchTierConfig(baseURL string, hc *http.Client, path, tag string, cfg any) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(baseURL + path)
	if err != nil {
		return fmt.Errorf("collect: fetch %sconfig: %w", tag, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %s answered %s", ErrTierNotServed, path, resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collect: %sconfig status %s", tag, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(cfg); err != nil {
		return fmt.Errorf("collect: decode %sconfig: %w", tag, err)
	}
	return nil
}

// FetchProtocol reads the collection round configuration a server
// advertises at baseURL/config and reconstructs the matching protocol.
// Servers that predate the protocol field are assumed to speak ptscp. It
// is the single place the config→protocol rules live, shared by NewClient
// and by peers joining a federation tier (cmd/mcimedge).
func FetchProtocol(baseURL string, hc *http.Client) (*core.Protocol, WireConfig, error) {
	var cfg WireConfig
	if err := fetchTierConfig(baseURL, hc, "/config", "", &cfg); err != nil {
		return nil, cfg, err
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "ptscp"
	}
	proto, err := core.NewProtocol(cfg.Protocol, cfg.Classes, cfg.Items, cfg.Epsilon, cfg.Split)
	if err != nil {
		return nil, cfg, fmt.Errorf("collect: server protocol: %w", err)
	}
	return proto, cfg, nil
}

// NewClient fetches the server's configuration from baseURL and prepares
// the matching local protocol encoder seeded with seed. Servers that
// predate the protocol field are assumed to speak ptscp. Options are
// applied before the configuration fetch, so WithTenant reroutes the fetch
// itself.
func NewClient(baseURL string, hc *http.Client, seed uint64, opts ...ClientOption) (*Client, error) {
	c := &Client{batchClient: newBatchClient[WireReport](baseURL, hc, opts), rng: xrand.New(seed)}
	proto, cfg, err := FetchProtocol(c.base, c.http)
	if err != nil {
		return nil, err
	}
	c.proto, c.enc, c.cfg = proto, proto.Encoder(), cfg
	if err := c.bind("/reports", "", cfg.MaxBodyBytes, cfg.Wire, proto.AppendBinaryBatch); err != nil {
		return nil, err
	}
	return c, nil
}

// Config returns the server-side collection round parameters the client
// fetched at construction. Pairs submitted through this client must lie in
// the (Classes, Items) domain it describes.
func (c *Client) Config() WireConfig { return c.cfg }

// Protocol returns the protocol the client encodes for.
func (c *Client) Protocol() *core.Protocol { return c.proto }

// perturb runs the protocol's client half locally and encodes the result
// for the wire.
func (c *Client) perturb(pair core.Pair) WireReport {
	return c.proto.EncodeReport(c.enc.Encode(pair, c.rng))
}

// retry runs do under the client's retry policy: capped exponential backoff
// as long as StatusCode reports a 5xx — the one class of failure where the
// server definitively did not ingest the request, so a retry can never
// double-count. Transport errors and 4xx responses surface immediately.
func (c *batchClient[W]) retry(do func() error) error {
	delay := c.retryBase
	for attempt := 0; ; attempt++ {
		err := do()
		code, ok := StatusCode(err)
		if err == nil || !ok || code < 500 || attempt >= c.retries {
			return err
		}
		c.sleep(delay)
		if delay < c.retryBase*maxRetryDelayFactor {
			delay *= 2
		}
	}
}

// Submit perturbs the pair under the protocol's encoder and POSTs the
// report immediately as a single-report request. Server errors (5xx) are
// retried with backoff per the client's retry policy.
func (c *Client) Submit(pair core.Pair) error {
	body, err := json.Marshal(c.perturb(pair))
	if err != nil {
		return err
	}
	return c.retry(func() error {
		resp, err := c.http.Post(c.base+"/report", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("collect: submit: %w", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return &statusError{resp.StatusCode, "collect: submit status " + resp.Status}
		}
		return nil
	})
}

// SubmitBatch perturbs every pair and ships the whole batch as one
// POST /reports request, returning the server's acknowledgement. Reports a
// client perturbs are always in-domain, so a non-zero Rejected count in the
// acknowledgement indicates a client/server configuration mismatch.
func (c *Client) SubmitBatch(pairs []core.Pair) (*WireBatchAck, error) {
	wires := make([]WireReport, len(pairs))
	for i, p := range pairs {
		wires[i] = c.perturb(p)
	}
	return c.postBatch(wires)
}

// Buffer perturbs the pair and appends the report to the local batch
// buffer, flushing automatically when BatchSize reports have accumulated.
// Call Flush after the last Buffer to ship the remainder.
func (c *Client) Buffer(pair core.Pair) error { return c.buffer(c.perturb(pair)) }

// buffer appends one perturbed report, flushing at the batch size.
func (c *batchClient[W]) buffer(wire W) error {
	c.pending = append(c.pending, wire)
	if len(c.pending) >= c.batchSize {
		return c.Flush()
	}
	return nil
}

// Pending returns the number of buffered reports not yet shipped.
func (c *batchClient[W]) Pending() int { return len(c.pending) }

// Flush ships the buffered reports in batch requests of at most BatchSize
// reports each. It is a no-op when the buffer is empty. Chunks answered
// with a 5xx are first retried with backoff per the retry policy; when the
// server (still) answers a chunk with an error status it definitively did
// not ingest it
// (StatusCode reports the status behind such errors), so the chunk (and
// everything after it) stays buffered for a retry — and
// a 413 additionally halves the client's batch size, so the retry ships
// smaller requests instead of looping on an identical oversized body. On a
// transport error (where the in-flight chunk may have been ingested before
// the response was lost) that chunk is dropped instead — resubmitting
// perturbed reports that did land would double-count them; unsent reports
// stay buffered. When the server ingests a chunk partially, the returned
// error is a *BatchRejectedError itemizing the rejections, indexed
// relative to the buffer as it stood when Flush began; the chunk was
// ingested, so it leaves the buffer.
func (c *batchClient[W]) Flush() error {
	sent, total := 0, len(c.pending)
	for len(c.pending) > 0 {
		n := min(len(c.pending), c.batchSize)
		wires := c.pending[:n]
		ack, err := c.postBatch(wires)
		var se *statusError
		if errors.As(err, &se) {
			if se.Code == http.StatusRequestEntityTooLarge && n > 1 {
				c.batchSize = (n + 1) / 2
			}
			return err // not ingested: buffer kept for retry
		}
		if err != nil {
			c.pending = c.pending[n:] // in-flight chunk may have landed: drop it
			return err
		}
		c.pending = c.pending[n:]
		if ack.Rejected > 0 {
			errs := make([]WireItemError, len(ack.Errors))
			for i, ie := range ack.Errors {
				ie.Index += sent // chunk-relative → flush-start-relative
				errs[i] = ie
			}
			return &BatchRejectedError{
				Submitted: sent + n,
				Buffered:  total,
				Rejected:  ack.Rejected,
				Errors:    errs,
				Truncated: ack.ErrorsTruncated,
			}
		}
		sent += n
	}
	c.pending = nil // release the drained buffer's backing array
	return nil
}

// maxFlushErrorItems bounds how many per-item rejections a
// BatchRejectedError renders in its message; the full (server-capped) list
// stays available on the Errors field.
const maxFlushErrorItems = 8

// BatchRejectedError reports a flushed buffer the server ingested only
// partially: Rejected of the Submitted reports actually sent (out of
// Buffered held when the flush began — the difference is still pending)
// were refused, itemized (up to the server's per-chunk cap) in Errors,
// indexed into the buffer as it stood when the flush began.
type BatchRejectedError struct {
	Submitted int
	Buffered  int
	Rejected  int
	Errors    []WireItemError
	Truncated bool
}

func (e *BatchRejectedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "collect: server rejected %d of %d submitted reports (%d buffered)", e.Rejected, e.Submitted, e.Buffered)
	for i, ie := range e.Errors {
		if i >= maxFlushErrorItems {
			break
		}
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "[%d] %s", ie.Index, ie.Error)
	}
	if hidden := len(e.Errors) - maxFlushErrorItems; hidden > 0 {
		fmt.Fprintf(&b, "; … %d more itemized", hidden)
	}
	if e.Truncated {
		fmt.Fprintf(&b, " (server capped the error list)")
	}
	return b.String()
}

// statusError is a batch submission the server answered with a non-200
// status — the batch was definitively not ingested. Code is the HTTP status
// so callers can distinguish retryable rejections.
type statusError struct {
	Code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// StatusCode returns the HTTP status behind a submission error and true
// when the server answered with a non-200 status (the batch was
// definitively not ingested, so the buffer was kept — retry Flush, after
// fixing the cause for 4xx statuses like 413). It returns 0, false for
// transport and other errors.
func StatusCode(err error) (int, bool) {
	var se *statusError
	if errors.As(err, &se) {
		return se.Code, true
	}
	return 0, false
}

// postBatch encodes wires per the client's batch encoding and POSTs them to
// the tier's batch endpoint, retrying 5xx responses per the client's retry
// policy (the body is encoded once and replayed per attempt).
func (c *batchClient[W]) postBatch(wires []W) (*WireBatchAck, error) {
	var (
		body        []byte
		contentType string
	)
	if c.binary {
		// The frame is built into a pooled buffer, returned after the last
		// attempt — a steady producer allocates no per-batch body.
		bufp := encodeBufPool.Get().(*[]byte)
		frame, err := c.appendBinary((*bufp)[:0], wires)
		if err != nil {
			encodeBufPool.Put(bufp)
			return nil, err
		}
		*bufp = frame[:0]
		defer encodeBufPool.Put(bufp)
		body, contentType = frame, BinaryContentType
	} else {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(wires); err != nil {
			return nil, err
		}
		body, contentType = buf.Bytes(), "application/json"
	}
	var ack *WireBatchAck
	err := c.retry(func() error {
		resp, err := c.http.Post(c.base+c.path, contentType, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("collect: submit %sbatch: %w", c.tag, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusRequestEntityTooLarge {
				return &statusError{resp.StatusCode, fmt.Sprintf(
					"collect: %sbatch of %d reports (%d bytes) exceeds the server's %d-byte body cap; reduce the batch size",
					c.tag, len(wires), len(body), c.maxBody)}
			}
			return &statusError{resp.StatusCode, "collect: submit " + c.tag + "batch status " + resp.Status}
		}
		var a WireBatchAck
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			return fmt.Errorf("collect: decode %sbatch ack: %w", c.tag, err)
		}
		ack = &a
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ack, nil
}

// getJSON GETs base+path and decodes the 200 body into out; what names the
// document in errors.
func (c *batchClient[W]) getJSON(path, what string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("collect: %s: %w", what, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collect: %s status %s", what, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Estimates fetches the server's current calibrated estimates.
func (c *Client) Estimates() (*WireEstimates, error) {
	var est WireEstimates
	if err := c.getJSON("/estimates", "estimates", &est); err != nil {
		return nil, err
	}
	return &est, nil
}

// Stats fetches the server's operational snapshot.
func (c *Client) Stats() (*WireStats, error) {
	var st WireStats
	if err := c.getJSON("/stats", "stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}
