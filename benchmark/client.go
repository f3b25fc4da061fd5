package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"slices"
	"strconv"
	"time"
)

// This file is the load generator's HTTP/1.1 client: one keep-alive TCP
// connection, requests written as pre-built bytes with one writev, replies
// parsed for just their status and framing. It exists because net/http's client
// spends about as much CPU per small request as the server under test does
// (two goroutine hand-offs and a header map per call), which on a two-core
// box would make the benchmark measure the generator. The server side is
// untouched: it sees ordinary keep-alive HTTP/1.1.

// request is one pre-built HTTP request: the head is rendered once, the
// body is shared with whoever generated it.
type request struct {
	head, body []byte
}

func newRequest(method, path, contentType string, body []byte) request {
	head := method + " " + path + " HTTP/1.1\r\nHost: bench\r\n"
	if contentType != "" {
		head += "Content-Type: " + contentType + "\r\n"
	}
	if method != http.MethodGet {
		head += "Content-Length: " + strconv.Itoa(len(body)) + "\r\n"
	}
	return request{head: []byte(head + "\r\n"), body: body}
}

func getRequest(path string) request { return newRequest(http.MethodGet, path, "", nil) }

func postRequest(path, contentType string, body []byte) request {
	return newRequest(http.MethodPost, path, contentType, body)
}

// timing is the client-side view of one request: when its first byte was
// handed to the kernel, when the last was, when the first byte of the reply
// arrived and when the reply had been read in full.
type timing struct {
	sent, wrote, first, done time.Time
}

// conn is one keep-alive connection. Not safe for concurrent use: one
// closed-loop client owns one conn.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf net.Buffers
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// requestTimeout bounds one request so a wedged server fails the run
// instead of hanging it past the driver's limit.
const requestTimeout = 30 * time.Second

// do sends req and reads the reply. The body is appended to into (which
// may be nil) and returned when keep is set, and discarded otherwise.
func (c *conn) do(req request, into []byte, keep bool) (status int, body []byte, t timing, err error) {
	c.c.SetDeadline(time.Now().Add(requestTimeout))
	t.sent = time.Now()
	c.buf = append(c.buf[:0], req.head)
	if len(req.body) > 0 {
		c.buf = append(c.buf, req.body)
	}
	// WriteTo consumes the slice header it is called on; work on a copy so
	// c.buf keeps its backing array for the next request.
	bufs := c.buf
	if _, err = bufs.WriteTo(c.c); err != nil {
		return 0, nil, t, err
	}
	t.wrote = time.Now()
	if _, err = c.br.Peek(1); err != nil {
		return 0, nil, t, err
	}
	t.first = time.Now()
	status, length, chunked, closing, err := c.readHead()
	if err != nil {
		return 0, nil, t, err
	}
	body = into[:0]
	switch {
	case chunked:
		var w io.Writer = io.Discard
		buf := bytes.NewBuffer(body)
		if keep {
			w = buf
		}
		if _, err = io.Copy(w, httputil.NewChunkedReader(c.br)); err == nil {
			// The chunked reader stops after the last-chunk line; the empty
			// trailer section's CRLF is still in the buffer.
			_, err = c.br.ReadSlice('\n')
		}
		body = buf.Bytes()
	case keep:
		body = slices.Grow(body, length)[:length]
		_, err = io.ReadFull(c.br, body)
	default:
		_, err = c.br.Discard(length)
	}
	t.done = time.Now()
	if err != nil {
		return 0, nil, t, err
	}
	if closing {
		return status, body, t, fmt.Errorf("server closed the keep-alive connection (status %d)", status)
	}
	return status, body, t, nil
}

// readHead parses a reply's status line and the three headers that decide
// how its body is framed. net/http's ReadResponse would do, but it builds a
// header map per reply, and at fifteen thousand small replies a second that
// is a visible share of the generator's CPU.
func (c *conn) readHead() (status, length int, chunked, closing bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, false, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, 0, false, false, fmt.Errorf("malformed status line %q", line)
	}
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, 0, false, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return status, length, chunked, closing, nil
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, 0, false, false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
}
