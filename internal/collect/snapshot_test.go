package collect

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// snapshotFrameworks is every protocol the checkpoint tests cover: all four
// canonical frameworks plus PTS over OLH, whose supports are counted by
// rehashing.
var snapshotFrameworks = []string{"hec", "ptj", "pts", "ptscp", "pts+olh"}

// TestServerCheckpointRestart simulates a server restart mid-collection for
// every framework: snapshot, rebuild, restore, continue — estimates must be
// bit-identical to a server that never restarted.
func TestServerCheckpointRestart(t *testing.T) {
	const c, d = 2, 6
	for _, name := range snapshotFrameworks {
		t.Run(name, func(t *testing.T) {
			proto := mustProtocol(t, name, c, d, 3, 0.5)
			srvA, err := NewServer(proto)
			if err != nil {
				t.Fatal(err)
			}
			enc, r := proto.Encoder(), xrand.New(3)
			submit := func(srv *Server, n int) {
				for i := 0; i < n; i++ {
					wire := proto.EncodeReport(enc.Encode(core.Pair{Class: i % c, Item: i % d}, r))
					if err := ingestChunk(srv.freq, []WireReport{wire}); err != nil {
						t.Fatal(err)
					}
				}
			}
			submit(srvA, 800)
			blob, err := srvA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// "Restart": fresh server with the same configuration.
			srvB, err := NewServer(mustProtocol(t, name, c, d, 3, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			if err := srvB.Restore(blob); err != nil {
				t.Fatal(err)
			}
			if srvB.Reports() != 800 {
				t.Fatalf("restored server has %d reports", srvB.Reports())
			}
			if !reflect.DeepEqual(freqAgg(t, srvB).Estimates(), freqAgg(t, srvA).Estimates()) {
				t.Fatal("restored estimates not bit-identical")
			}
		})
	}
}

// TestSnapshotRefusesMismatchedProtocol checks that a snapshot only
// restores into a server with the identical protocol fingerprint: a
// different domain or a different framework is refused via
// core.ErrIncompatibleState, never silently merged.
func TestSnapshotRefusesMismatchedProtocol(t *testing.T) {
	srv, ts := newTestServer(t, 2, 6, 3)
	client, err := NewClient(ts.URL, ts.Client(), 42)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	for i := 0; i < 100; i++ {
		if err := client.Submit(core.Pair{Class: r.Intn(2), Item: r.Intn(6)}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, proto := range map[string]*core.Protocol{
		"different items":     mustProtocol(t, "ptscp", 2, 7, 3, 0.5),
		"different framework": mustProtocol(t, "pts", 2, 6, 3, 0.5),
	} {
		other, err := NewServer(proto)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Restore(blob); !errors.Is(err, core.ErrIncompatibleState) {
			t.Fatalf("%s server took the snapshot (err=%v)", name, err)
		}
		if other.Reports() != 0 {
			t.Fatalf("%s server state changed by refused restore", name)
		}
	}
	if err := srv.Restore([]byte("not an envelope")); err == nil {
		t.Fatal("corrupt snapshot restored cleanly")
	}
}
