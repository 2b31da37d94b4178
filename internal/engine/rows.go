package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"netpowerprop/internal/obs"
)

// This file is the engine's one execution path: a RowPlan splits a
// normalized request into independently computable rows. Every consumer
// runs the same rows. Do and DoBatch compute them in memory as typed
// values under the request's worker slot and assemble the Result without
// any JSON. The jobs subsystem (internal/jobs) and Stream run one row at
// a time through ExecRow, which marshals the row's typed value into the
// bytes a journal checkpoints and a stream frame carries; Assemble
// decodes such bytes back into typed rows, so a resumed job produces the
// exact Result an uninterrupted computation would have.

// RowError is the typed per-row failure marker a degraded job carries in
// place of the row's payload: the row index, the final error text after
// retries were exhausted, and whether the failure was a contained panic.
type RowError struct {
	Row   int    `json:"row"`
	Err   string `json:"error"`
	Panic bool   `json:"panic,omitempty"`
}

// Error renders the marker as an ordinary error.
func (e RowError) Error() string {
	if e.Panic {
		return fmt.Sprintf("row %d panicked: %s", e.Row, e.Err)
	}
	return fmt.Sprintf("row %d failed: %s", e.Row, e.Err)
}

// RowPlan is one request split into independent rows. A row is a typed
// value in memory; its JSON encoding is the self-contained payload a
// journal replays. Assemble rebuilds the Result from any mix of freshly
// computed and replayed payloads, and the bytes are identical either way.
type RowPlan struct {
	req  Request
	n    int
	rows rowSet
}

// rowSet is a plan's typed rows behind an interface, so RowPlan itself
// needs no type parameter.
type rowSet interface {
	// exec computes row i and encodes it as its JSON payload.
	exec(ctx context.Context, i int) (json.RawMessage, error)
	// run computes all n rows in memory and assembles the Result.
	run(ctx context.Context, n int) (*Result, error)
	// replay decodes the payloads (nil where the row failed) and
	// assembles the Result from the rows that are present.
	replay(raws []json.RawMessage) (*Result, error)
}

// typedRows is the rowSet over rows of type T.
type typedRows[T any] struct {
	row      func(ctx context.Context, i int) (T, error)
	assemble func(rows []T) *Result
}

// NewRowPlan builds a plan over rows of type T: row computes row i, and
// assemble builds the Result from the successful rows in row order (all
// of them, unless a degraded job is being assembled). row must be safe to
// call concurrently and produce the same value for the same i — that is
// what makes journaled replay byte-identical. The payload of a row is
// its JSON encoding, so T must round-trip through encoding/json.
func NewRowPlan[T any](req Request, n int,
	row func(ctx context.Context, i int) (T, error),
	assemble func(rows []T) *Result) *RowPlan {
	return &RowPlan{req: req, n: n, rows: typedRows[T]{row: row, assemble: assemble}}
}

// runRow computes one row with panic containment: a panicking row yields
// a *PanicError instead of killing the process. Together with planRows it
// is where the engine recovers panics. A canceled context stops a plan
// between rows.
func (r typedRows[T]) runRow(ctx context.Context, i int) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Val: p, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		return v, err
	}
	return r.row(ctx, i)
}

func (r typedRows[T]) exec(ctx context.Context, i int) (json.RawMessage, error) {
	v, err := r.runRow(ctx, i)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func (r typedRows[T]) run(ctx context.Context, n int) (*Result, error) {
	rows := make([]T, n)
	err := parallelRows(n, func(i int) (err error) {
		rows[i], err = r.runRow(ctx, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return r.assemble(rows), nil
}

func (r typedRows[T]) replay(raws []json.RawMessage) (*Result, error) {
	var rows []T
	for i, raw := range raws {
		if raw == nil {
			continue
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("engine: replay row %d: %w", i, err)
		}
		rows = append(rows, v)
	}
	return r.assemble(rows), nil
}

// parallelRows calls row(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns the lowest-index error. Workers claim the next
// unclaimed row rather than a fixed share, so rows of uneven cost, or a
// worker whose core is busy elsewhere, do not leave the others idle while
// the request waits on one straggler. After a failure no further rows are
// claimed; every row below the failing one was already claimed, so the
// error returned is the one a serial loop would have stopped at.
func parallelRows(n int, row func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := row(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errAt    = n
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := row(i); err != nil {
					next.Store(int64(n))
					mu.Lock()
					if i < errAt {
						firstErr, errAt = err, i
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Rows is the number of independent rows.
func (p *RowPlan) Rows() int { return p.n }

// Key is the canonical key of the normalized request — the jobs
// subsystem's idempotency token.
func (p *RowPlan) Key() string { return p.req.Key() }

// Request returns the normalized request the plan computes.
func (p *RowPlan) Request() Request { return p.req }

// Assemble rebuilds the Result from the row payloads. rows must have
// exactly Rows() entries; a nil entry must have a matching RowError in
// failed. When failed is empty the assembled Result is byte-identical
// (as JSON) to the one an uninterrupted computation would return;
// otherwise the Result carries the successful rows plus the markers.
func (p *RowPlan) Assemble(rows []json.RawMessage, failed []RowError) (*Result, error) {
	if len(rows) != p.n {
		return nil, fmt.Errorf("engine: assemble got %d rows, plan has %d", len(rows), p.n)
	}
	res, err := p.rows.replay(rows)
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		res.RowErrors = failed
	}
	return res, nil
}

// Plan normalizes a request and splits it into independent rows (see
// planRows).
func (e *Engine) Plan(req Request) (*RowPlan, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	return planRows(norm)
}

// ExecRow computes one row of a plan under the same bounded worker pool
// interactive requests use, and returns its JSON payload: background
// jobs and streams share compute capacity fairly with the serving path
// instead of bypassing it.
func (e *Engine) ExecRow(ctx context.Context, p *RowPlan, i int) (json.RawMessage, error) {
	if i < 0 || i >= p.n {
		return nil, fmt.Errorf("engine: row %d outside plan of %d rows", i, p.n)
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	start := time.Now()
	data, err := p.rows.exec(ctx, i)
	elapsed := time.Since(start)
	e.rowNanos.Add(int64(elapsed))
	e.rowsExecuted.Add(1)
	e.rowHist.ObserveDuration(elapsed)
	var pe *PanicError
	if errors.As(err, &pe) {
		e.panics.Add(1)
		e.lastPanic.Store(time.Now().UnixNano())
		e.log.Error("panic recovered in row",
			"trace", obs.TraceID(ctx), "op", string(p.req.Op), "row", i, "panic", pe.Val)
	}
	return data, err
}
