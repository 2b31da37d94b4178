package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is the outcome of one request. Times are offsets from the start
// of the phase that sent it.
type sample struct {
	Req request
	// Due is when an open-loop schedule wanted the request sent (equal to
	// Sent in a closed loop); Sent and Done bracket the HTTP exchange.
	Due, Sent, Done time.Duration
	Status          int
	Bytes           int
	// Digest fingerprints the answer (see answerDigest); Body keeps the
	// raw body of a batch, whose rows are checked one by one.
	Digest uint64
	Body   []byte
	Err    error
}

// Latency is the time from when the request was due to its answer.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Sent - s.Due }

// Service is the time from send to answer.
func (s sample) Service() time.Duration { return s.Done - s.Sent }

// ok reports whether the request got a 200 with a readable body.
func (s sample) ok() bool { return s.Err == nil && s.Status == http.StatusOK }

// client drives one server over at most conns keep-alive connections.
type client struct {
	base  string
	http  *http.Client
	conns int
	dials atomic.Int64
}

// newClient returns a client for the server at base (scheme://host:port).
func newClient(base string, conns int) *client {
	c := &client{base: base, conns: conns}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.http = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return c
}

// close drops the client's idle connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and fills the outcome fields of s. buf is the
// caller's reusable read buffer.
func (c *client) do(ctx context.Context, r request, buf *bytes.Buffer, s *sample) {
	method, body := http.MethodGet, io.Reader(nil)
	if r.Kind == kindBatch {
		method, body = http.MethodPost, bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+r.Target, body)
	if err != nil {
		s.Err = err
		return
	}
	if r.Kind == kindBatch {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		s.Err = err
		return
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	s.Status, s.Bytes, s.Err = resp.StatusCode, buf.Len(), err
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	if r.Kind == kindBatch {
		s.Body = bytes.Clone(buf.Bytes())
		return
	}
	s.Digest, s.Err = answerDigest(r.Kind, buf.Bytes())
}

// get fetches a path and returns its body, failing on a non-200 answer.
// (A stream request's digest covers the whole body, which any answer
// has.)
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	var buf bytes.Buffer
	var s sample
	c.do(ctx, request{Kind: kindStream, Target: path}, &buf, &s)
	if s.Err != nil {
		return nil, s.Err
	}
	if s.Status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, s.Status, buf.String())
	}
	return bytes.Clone(buf.Bytes()), nil
}

// resultMarker precedes the result object in cmd/serve's indented
// apiResponse; everything after it is the answer, everything before it
// (cached flag, elapsed time) legitimately varies between calls.
var resultMarker = []byte(`"result": `)

// errNoResult reports a buffered answer without a result object.
var errNoResult = errors.New("response has no result object")

// answerDigest fingerprints the part of a response that must equal the
// in-process answer: the result object of a buffered answer, or the whole
// body of an NDJSON stream (its frames carry no timing).
func answerDigest(k kind, body []byte) (uint64, error) {
	if k == kindSingle {
		i := bytes.Index(body, resultMarker)
		if i < 0 {
			return 0, errNoResult
		}
		body = body[i+len(resultMarker):]
	}
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64(), nil
}

// openLoop sends the requests next yields on a fixed schedule, one every
// 1/rate seconds for dur, over the client's connections. Every arrival due
// before dur is sent, however late the generator runs; each sample is
// timed from its due time, so a stall shows in the latency of every
// request queued behind it.
func (c *client) openLoop(ctx context.Context, next func() request, rate float64, dur time.Duration) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(dur / interval)
	out := make([]sample, total)
	var idx atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex // orders next() calls with index assignment
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				mu.Lock()
				k := int(idx.Add(1) - 1)
				if k >= total {
					mu.Unlock()
					return
				}
				r := next()
				mu.Unlock()
				due := time.Duration(k) * interval
				sleepUntil(start.Add(due))
				s := &out[k]
				s.Req, s.Due, s.Sent = r, due, time.Since(start)
				c.do(ctx, r, &buf, s)
				s.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling goroutine's thread until t. It sleeps in
// nanosleep rather than time.Sleep: the runtime rounds an idle process's
// timer waits up to whole milliseconds, which would add up to a
// millisecond of generator lateness to every sub-millisecond gap.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// closedLoop keeps every connection busy for dur: each worker sends its
// next request as soon as the previous one is answered.
func (c *client) closedLoop(ctx context.Context, next func() request, dur time.Duration) []sample {
	start := time.Now()
	results := make([][]sample, c.conns)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < dur {
				var s sample
				s.Req = next()
				s.Sent = time.Since(start)
				s.Due = s.Sent
				c.do(ctx, s.Req, &buf, &s)
				s.Done = time.Since(start)
				results[w] = append(results[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}
