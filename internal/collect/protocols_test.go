package collect

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
)

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
