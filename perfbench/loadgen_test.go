package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers every request with a fixed result body, except that
// the stallAt-th request (1-based) first sleeps for stall.
func stallServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "{\n  \"cached\": true,\n  \"result\": {\"op\": \"whatif\"}\n}\n")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func fixed(path string) func() request {
	return func() request { return request{Kind: kindSingle, Target: path} }
}

func TestOpenLoopStallShowsInLaterRequests(t *testing.T) {
	const (
		rate    = 200.0 // one arrival every 5 ms
		stallAt = 20
		stall   = 150 * time.Millisecond
	)
	srv := stallServer(t, stallAt, stall)
	c := newClient(srv.URL, 1)
	defer c.close()
	samples := c.openLoop(context.Background(), fixed("/v1/whatif"), rate, 500*time.Millisecond)

	if len(samples) != 100 {
		t.Fatalf("sent %d requests, want all 100 arrivals", len(samples))
	}
	for i, s := range samples {
		if !s.ok() {
			t.Fatalf("request %d failed: status %d, %v", i, s.Status, s.Err)
		}
		if s.Due != time.Duration(i)*5*time.Millisecond {
			t.Fatalf("request %d due at %v, want %v", i, s.Due, time.Duration(i)*5*time.Millisecond)
		}
	}
	stalled := samples[stallAt-1]
	if stalled.Latency() < stall {
		t.Errorf("stalled request latency %v, want at least %v", stalled.Latency(), stall)
	}
	// The next arrival was due 5 ms into the stall and could only be sent
	// once it ended: it is late by most of the stall, and its latency,
	// timed from its due time, includes that wait.
	next := samples[stallAt]
	if want := stall - 10*time.Millisecond; next.Late() < want || next.Latency() < want {
		t.Errorf("request after the stall: late %v, latency %v; want both at least %v",
			next.Late(), next.Latency(), want)
	}
	if next.Service() > 50*time.Millisecond {
		t.Errorf("request after the stall took %v to serve; the wait belongs in lateness", next.Service())
	}
	late := describe(millis(samples, sample.Late))
	if late.TailAt < float64(stall/time.Millisecond)/2 {
		t.Errorf("generator lateness %v does not show the stall", late)
	}
}

func TestClosedLoopKeepsConnectionsBusy(t *testing.T) {
	srv := stallServer(t, -1, 0)
	c := newClient(srv.URL, 2)
	defer c.close()
	samples := c.closedLoop(context.Background(), fixed("/v1/whatif"), 200*time.Millisecond)
	if len(samples) < 20 {
		t.Fatalf("only %d requests in 200ms of closed loop", len(samples))
	}
	for _, s := range samples {
		if !s.ok() || s.Due != s.Sent || s.Late() != 0 {
			t.Fatalf("closed-loop sample %+v", s)
		}
	}
	if d := c.dials.Load(); d < 1 || d > 2 {
		t.Errorf("closed loop over 2 connections dialed %d times", d)
	}
}

func TestAnswerDigestIgnoresServingMetadata(t *testing.T) {
	a := []byte("{\n  \"cached\": false,\n  \"elapsed_ms\": 0.5,\n  \"result\": {\"x\": 1}\n}\n")
	b := []byte("{\n  \"cached\": true,\n  \"elapsed_ms\": 0.01,\n  \"result\": {\"x\": 1}\n}\n")
	c := []byte("{\n  \"cached\": true,\n  \"elapsed_ms\": 0.01,\n  \"result\": {\"x\": 2}\n}\n")
	da, _ := answerDigest(kindSingle, a)
	db, _ := answerDigest(kindSingle, b)
	dc, _ := answerDigest(kindSingle, c)
	if da != db || da == dc {
		t.Errorf("digests %x %x %x: want equal for equal results, different otherwise", da, db, dc)
	}
	if _, err := answerDigest(kindSingle, []byte(`{"error":"bad"}`)); err == nil {
		t.Error("an answer without a result should not digest")
	}
}
