package collect

import (
	"net/http"
	"time"
)

// Read-side limits for the network-facing binaries. A client that never
// finishes its request headers, trickles a body, or parks an idle keep-alive
// connection would otherwise hold a connection (and its goroutine and
// buffers) for as long as it likes. There is deliberately no write timeout:
// /estimates over a large domain and the pprof profile endpoints write for
// as long as they need.
const (
	httpReadHeaderTimeout = 10 * time.Second
	// The whole request, body included: DefaultMaxBodyBytes at ~140 KiB/s.
	httpReadTimeout = 60 * time.Second
	httpIdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the http.Server mcimcollect and mcimedge serve a
// collection handler with: addr and h as given, plus the read-header, read
// and idle timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}
