package collect

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerClosesStalledHeaders pins the slow-client bound: a
// connection that never finishes its request headers is closed by the
// server once the read-header timeout passes, while a normal POST /reports
// arriving alongside it is served. The timeout is shortened on the built
// server so the test does not wait out the production value.
func TestHTTPServerClosesStalledHeaders(t *testing.T) {
	srv, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: header %v, read %v, idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /reports HTTP/1.1\r\nHost: stall\r\nContent-Type: app"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+ln.Addr().String()+"/reports", "application/json",
		strings.NewReader(`[{"label":0,"bits":[1]},{"label":1,"bits":[4]}]`))
	if err != nil {
		t.Fatalf("normal POST beside a stalled connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || srv.Reports() != 2 {
		t.Fatalf("normal POST: status %s, %d reports ingested", resp.Status, srv.Reports())
	}

	// The server's close ends the read; only our own deadline means the
	// connection was left open.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, stalled); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("header-stalling connection was still open 10s after the read-header timeout")
	}
}
