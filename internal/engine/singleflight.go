package engine

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent computations of the same key: the
// first caller computes, later callers wait for the leader's result. A
// waiter whose context expires stops waiting; the computation runs under
// the leader's context, so it stops between rows (and caches nothing)
// once the leader's context is done, and waiters still waiting get the
// leader's error.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  *Result
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per concurrent key; shared reports whether this caller
// piggybacked on another caller's computation.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*Result, error)) (res *Result, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()
	close(c.done)

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	return c.res, false, c.err
}
