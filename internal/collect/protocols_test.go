package collect

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/xrand"
)

// TestEndToEndAllProtocols runs the full HTTP pipeline — config fetch,
// client-side encoding, batched ingestion, merged estimates — for every
// canonical framework, checking the served estimates are finite and
// recover the planted signal's heaviest cell.
func TestEndToEndAllProtocols(t *testing.T) {
	const (
		c, d = 2, 6
		eps  = 4.0
		n    = 3000
	)
	for _, name := range core.ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			srv, ts := newProtoServer(t, name, c, d, eps)
			client, err := NewClient(ts.URL, ts.Client(), 99)
			if err != nil {
				t.Fatal(err)
			}
			if got := client.Protocol().Name(); got != name {
				t.Fatalf("client negotiated %q, want %q", got, name)
			}
			// Class 0 concentrated on item 1, class 1 on item 4.
			r := xrand.New(7)
			pairs := make([]core.Pair, n)
			for i := range pairs {
				pairs[i] = core.Pair{Class: 0, Item: 1}
				if r.Bernoulli(0.4) {
					pairs[i] = core.Pair{Class: 1, Item: 4}
				}
			}
			for lo := 0; lo < n; lo += 500 {
				ack, err := client.SubmitBatch(pairs[lo : lo+500])
				if err != nil {
					t.Fatal(err)
				}
				if ack.Rejected != 0 {
					t.Fatalf("server rejected %d in-domain reports: %v", ack.Rejected, ack.Errors)
				}
			}
			if srv.Reports() != n {
				t.Fatalf("server saw %d reports", srv.Reports())
			}
			est, err := client.Estimates()
			if err != nil {
				t.Fatal(err)
			}
			if est.Reports != n {
				t.Fatalf("estimates report count %d", est.Reports)
			}
			if len(est.Frequencies) != c || len(est.Frequencies[0]) != d || len(est.ClassSizes) != c {
				t.Fatalf("malformed estimates %+v", est)
			}
			for ci := range est.Frequencies {
				for i, v := range est.Frequencies[ci] {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("non-finite estimate f(%d,%d)=%v", ci, i, v)
					}
				}
			}
			// The planted cells dominate; at ε=4 every framework (including
			// the biased HEC strawman) recovers them within coarse bounds.
			if math.Abs(est.Frequencies[0][1]-1800) > 700 {
				t.Fatalf("f(0,1) estimate %v want ≈1800", est.Frequencies[0][1])
			}
			if math.Abs(est.Frequencies[1][4]-1200) > 700 {
				t.Fatalf("f(1,4) estimate %v want ≈1200", est.Frequencies[1][4])
			}
		})
	}
}

// TestEndToEndNamedPTSItem checks a "pts+<item>" protocol round: the server
// advertises the composite name and clients reconstruct the exact encoder
// (here PTS over OLH, whose reports carry a value plus hash seed).
func TestEndToEndNamedPTSItem(t *testing.T) {
	srv, ts := newProtoServer(t, "pts+olh", 2, 10, 2)
	client, err := NewClient(ts.URL, ts.Client(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if got := client.Protocol().Name(); got != "pts+olh" {
		t.Fatalf("client negotiated %q", got)
	}
	pairs := make([]core.Pair, 400)
	for i := range pairs {
		pairs[i] = core.Pair{Class: i % 2, Item: i % 10}
	}
	ack, err := client.SubmitBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Rejected != 0 {
		t.Fatalf("server rejected %d in-domain reports: %v", ack.Rejected, ack.Errors)
	}
	if srv.Reports() != 400 {
		t.Fatalf("server saw %d reports", srv.Reports())
	}
	est, err := client.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	for ci := range est.Frequencies {
		for i, v := range est.Frequencies[ci] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite estimate f(%d,%d)=%v", ci, i, v)
			}
		}
	}
}

// TestNewServerRejectsUnreconstructibleProtocol: a server whose protocol
// name cannot be rebuilt by core.NewProtocol would serve a round no client
// can join, so construction must fail.
func TestNewServerRejectsUnreconstructibleProtocol(t *testing.T) {
	p, err := core.NewPTSProtocolWithItem("my-custom-thing", 2, 8, 1, 0.5,
		func(d int, eps float64) (fo.Mechanism, error) { return fo.NewOUE(d, eps) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(p); err == nil {
		t.Fatal("server accepted a protocol name clients cannot reconstruct")
	}
}

// TestNewServerRejectsMasqueradingProtocol: a custom-mechanism protocol
// deliberately named like a canonical one has the same wire shape (SUE and
// OUE both ship d-bit vectors) but different calibration probabilities —
// clients would decode cleanly and estimate wrongly, so the server must
// refuse it.
func TestNewServerRejectsMasqueradingProtocol(t *testing.T) {
	p, err := core.NewPTSProtocolWithItem("pts", 2, 8, 1, 0.5,
		func(d int, eps float64) (fo.Mechanism, error) { return fo.NewSUE(d, eps) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(p); err == nil {
		t.Fatal("server accepted a SUE-backed protocol masquerading as pts (OUE)")
	}
	// The honest spelling of the same thing is accepted.
	honest := mustProtocol(t, "pts+sue", 2, 8, 1, 0.5)
	if _, err := NewServer(honest); err != nil {
		t.Fatal(err)
	}
}

// TestFlushRecoversFrom413: an auto-flush rejected with 413 must not retry
// the identical oversized body forever — the client halves its batch size
// and subsequent flushes drain the buffer in smaller chunks. Both report
// clients share the one Flush.
func TestFlushRecoversFrom413(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.newServer(t, 2, WithMaxBodyBytes(700))
			ts := newHTTPServer(t, srv)
			client, err := tc.newClient(ts.URL, ts.Client(), 23, WithBatchSize(64))
			if err != nil {
				t.Fatal(err)
			}
			// Fill the buffer below the auto-flush threshold, then flush: 63
			// reports marshal well over 700 bytes, so the first attempts must
			// 413 and shrink the batch size until chunks fit.
			sawTooLarge := false
			for i := 0; i < 63; i++ {
				if err := client.bufferNth(i); err != nil {
					if code, ok := StatusCode(err); !ok || code != 413 {
						t.Fatal(err)
					}
					sawTooLarge = true
				}
			}
			for attempt := 0; client.Pending() > 0; attempt++ {
				if attempt > 12 {
					t.Fatalf("flush did not converge; %d still pending", client.Pending())
				}
				if err := client.Flush(); err != nil {
					if code, ok := StatusCode(err); !ok || code != 413 {
						t.Fatal(err)
					}
					sawTooLarge = true
				}
			}
			if !sawTooLarge {
				t.Fatal("test never hit the 413 path; shrink the body cap")
			}
			if got := tc.reports(srv); got != 63 {
				t.Fatalf("server ingested %d of 63 reports", got)
			}
		})
	}
}

// TestFlushReportsPartialRejection drives a client whose configuration has
// drifted from the server's (a bigger report domain), so some buffered
// reports are refused: the Flush error must itemize the rejected indices
// and messages instead of discarding them.
func TestFlushReportsPartialRejection(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			tsBig := newHTTPServer(t, tc.newServer(t, 4))
			tsSmall := newHTTPServer(t, tc.newServer(t, 2))
			client, err := tc.newClient(tsBig.URL, tsBig.Client(), 31)
			if err != nil {
				t.Fatal(err)
			}
			// Re-point the misconfigured client at the smaller-domain server;
			// its reports routinely carry labels (and, for the frequency tier,
			// set bits) the small server rejects.
			client.retarget(tsSmall.URL)
			for i := 0; i < 50; i++ {
				if err := client.bufferNth(i); err != nil {
					t.Fatal(err)
				}
			}
			err = client.Flush()
			if err == nil {
				t.Fatal("flush with rejected reports returned nil error")
			}
			var rej *BatchRejectedError
			if !errors.As(err, &rej) {
				t.Fatalf("flush error %T %q, want *BatchRejectedError", err, err)
			}
			if rej.Rejected == 0 || rej.Submitted != 50 {
				t.Fatalf("rejection counts %d/%d", rej.Rejected, rej.Submitted)
			}
			if len(rej.Errors) == 0 {
				t.Fatal("rejection error carries no itemized errors")
			}
			for _, ie := range rej.Errors {
				if ie.Index < 0 || ie.Index >= 50 || ie.Error == "" {
					t.Fatalf("malformed itemized error %+v", ie)
				}
			}
			msg := err.Error()
			if len(msg) == 0 || msg[len(msg)-1] == ' ' {
				t.Fatalf("malformed message %q", msg)
			}
		})
	}
}
