package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func chaosReq(params map[string]float64) Request {
	return Request{Op: OpScenario, Scenario: "chaos", Params: params}
}

// A panicking computation must surface as an error — not kill the process —
// and bump the panic counter and degraded health.
func TestPanicRecovered(t *testing.T) {
	e := New(Options{Workers: 2})
	_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"panic": 1}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("panic error %q does not name the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	m := e.Metrics()
	if m.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.Panics)
	}
	h := e.Health(time.Minute)
	if h.Status != "degraded" || !strings.Contains(h.Reason, "panic") {
		t.Errorf("health after panic = %+v, want degraded with panic reason", h)
	}
	// Outside the window the panic no longer degrades health.
	if h := e.Health(time.Nanosecond); h.Status != "ok" {
		t.Errorf("health with expired window = %+v, want ok", h)
	}
	// The engine still serves requests afterwards.
	if _, _, err := e.Do(context.Background(), chaosReq(nil)); err != nil {
		t.Fatalf("engine dead after recovered panic: %v", err)
	}
}

// A panic inside a parallel row worker is contained the same way: the
// plan's rows fan out across goroutines, and the panicking row surfaces
// as a *PanicError from the in-memory run.
func TestPanicInRowWorker(t *testing.T) {
	req, err := chaosReq(map[string]float64{"rows": 8, "panicrow": 3}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = runPlan(context.Background(), req)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

// A nonsensical sample count is a planning error, not a crash: Do and
// DoBatch run planners on a detached goroutine, where an escaped panic
// would kill the process.
func TestNonPositiveSamplesRejected(t *testing.T) {
	e := New(Options{Workers: 2})
	for _, name := range []string{"rateadapt", "parking"} {
		for _, samples := range []float64{-1, 0} {
			req := Request{Op: OpScenario, Scenario: name, Params: map[string]float64{"samples": samples}}
			_, _, err := e.Do(context.Background(), req)
			if err == nil || !strings.Contains(err.Error(), "samples") {
				t.Errorf("%s samples=%v: err = %v, want a samples error", name, samples, err)
			}
			items := e.DoBatch(context.Background(), []Request{req})
			if err := items[0].Err; err == nil || !strings.Contains(err.Error(), "samples") {
				t.Errorf("%s samples=%v: DoBatch err = %v, want a samples error", name, samples, err)
			}
		}
	}
	if m := e.Metrics(); m.Panics != 0 {
		t.Errorf("panics = %d, want 0", m.Panics)
	}
}

// Size parameters above their bounds are refused by Normalize, so Do and
// DoBatch answer an error naming the parameter before any planner
// allocates for them; a value at its bound normalizes.
func TestOversizedScenarioRejected(t *testing.T) {
	e := New(Options{Workers: 2})
	for _, c := range []struct {
		scenario, param string
		limit           float64
	}{
		{"faults", "radix", maxFaultRadix},
		{"faults", "iters", maxScenarioIters},
		{"topologies", "hosts", maxTopologyHosts},
		{"topologies", "iters", maxScenarioIters},
		{"rateadapt", "samples", maxScenarioSamples},
		{"parking", "samples", maxScenarioSamples},
	} {
		at := Request{Op: OpScenario, Scenario: c.scenario, Params: map[string]float64{c.param: c.limit}}
		if _, err := at.Normalize(); err != nil {
			t.Errorf("%s %s=%v (the bound): %v", c.scenario, c.param, c.limit, err)
		}
		for _, v := range []float64{c.limit + 1, 1e12} {
			req := Request{Op: OpScenario, Scenario: c.scenario, Params: map[string]float64{c.param: v}}
			_, _, err := e.Do(context.Background(), req)
			if err == nil || !strings.Contains(err.Error(), c.param) {
				t.Errorf("%s %s=%v: err = %v, want a %s error", c.scenario, c.param, v, err, c.param)
			}
			items := e.DoBatch(context.Background(), []Request{req})
			if err := items[0].Err; err == nil || !strings.Contains(err.Error(), c.param) {
				t.Errorf("%s %s=%v: DoBatch err = %v, want a %s error", c.scenario, c.param, v, err, c.param)
			}
		}
	}
	if m := e.Metrics(); m.Panics != 0 {
		t.Errorf("panics = %d, want 0", m.Panics)
	}
}

// A planner that panics is contained like a panicking row: Do returns a
// *PanicError, the panic is counted once, and the engine keeps serving.
func TestPanicInPlanner(t *testing.T) {
	scenarios["plannerpanic"] = scenarioSpec{
		defaults: map[string]float64{},
		plan:     func(Request) (*RowPlan, error) { panic("planner panic") },
	}
	defer delete(scenarios, "plannerpanic")
	e := New(Options{Workers: 1})
	_, _, err := e.Do(context.Background(), Request{Op: OpScenario, Scenario: "plannerpanic"})
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "planner panic") {
		t.Fatalf("err = %v, want *PanicError naming the planner panic", err)
	}
	if m := e.Metrics(); m.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.Panics)
	}
	if _, err := e.Plan(Request{Op: OpScenario, Scenario: "plannerpanic"}); !errors.As(err, &pe) {
		t.Errorf("Plan err = %v, want *PanicError", err)
	}
	if _, _, err := e.Do(context.Background(), chaosReq(nil)); err != nil {
		t.Fatalf("engine dead after planner panic: %v", err)
	}
}

// Once Workers+MaxQueue computations are pending, further misses shed with
// ErrOverloaded instead of queuing unboundedly.
func TestLoadShedding(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 1})
	release := make(chan struct{})
	launched := make(chan struct{}, 8)
	// Occupy the worker and the one queue slot with distinct slow requests.
	// The sleeps must be long enough that both stay pending while the poll
	// loop below looks — on a single-core runner a millisecond window can
	// fall entirely between two samples.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		sleep := 0.2 * float64(i+1) // distinct keys, so no singleflight collapse
		go func() {
			launched <- struct{}{}
			<-release
			_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": sleep}))
			done <- err
		}()
	}
	<-launched
	<-launched
	close(release)
	// Wait until both are admitted (pending == 2).
	deadline := time.After(2 * time.Second)
	for e.Metrics().Pending < 2 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want 2", e.Metrics().Pending)
		case <-time.After(time.Millisecond):
		}
	}
	_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.003}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if m := e.Metrics(); m.Sheds != 1 {
		t.Errorf("sheds = %d, want 1", m.Sheds)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	// With the pool drained, the same request is admitted again. (Drain
	// first: pending is released slightly after Do returns.)
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := e.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 0.003})); err != nil {
		t.Errorf("request after drain failed: %v", err)
	}
}

// A request deadline propagates into the computation: a slow scenario is
// cut off with DeadlineExceeded and counted.
func TestDeadlinePropagation(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := e.Do(ctx, chaosReq(map[string]float64{"sleep": 10}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if m := e.Metrics(); m.Deadlines != 1 {
		t.Errorf("deadlines = %d, want 1", m.Deadlines)
	}
	// The abandoned computation eventually finishes and frees the pool.
	drainCtx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	if err := e.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A long sweep whose deadline expires stops between rows: its worker slot
// and pending count are released promptly, not after the whole sweep.
func TestSweepDeadlineReleasesSlot(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := e.Do(ctx, Request{Op: OpSweep, Steps: maxSweepSteps})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer dcancel()
	if err := e.Drain(dctx); err != nil {
		t.Fatalf("sweep still holds its slot after its deadline: %v", err)
	}
}

// Drain returns promptly when idle and honors its context when work hangs.
func TestDrain(t *testing.T) {
	e := New(Options{Workers: 1})
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": 30})) //nolint:errcheck
	deadline := time.After(2 * time.Second)
	for e.Metrics().Pending == 0 {
		select {
		case <-deadline:
			t.Fatal("slow request never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with hung work = %v, want DeadlineExceeded", err)
	}
}

// Health reports saturation when more requests are pending than workers.
func TestHealthSaturation(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: 4})
	if h := e.Health(time.Minute); h.Status != "ok" {
		t.Fatalf("idle health = %+v", h)
	}
	for i := 0; i < 3; i++ {
		sleep := 0.2 + 0.001*float64(i)
		go e.Do(context.Background(), chaosReq(map[string]float64{"sleep": sleep})) //nolint:errcheck
	}
	deadline := time.After(2 * time.Second)
	for e.Metrics().Pending < 2 {
		select {
		case <-deadline:
			t.Fatalf("pending = %d, want >= 2", e.Metrics().Pending)
		case <-time.After(time.Millisecond):
		}
	}
	if h := e.Health(time.Minute); h.Status != "degraded" || !strings.Contains(h.Reason, "saturated") {
		t.Errorf("health under load = %+v, want degraded/saturated", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// An unbounded queue (negative MaxQueue) never sheds.
func TestUnboundedQueue(t *testing.T) {
	e := New(Options{Workers: 1, MaxQueue: -1})
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		sleep := 0.001 * float64(i+1)
		go func() {
			_, _, err := e.Do(context.Background(), chaosReq(map[string]float64{"sleep": sleep}))
			done <- err
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Errorf("request failed: %v", err)
		}
	}
	if m := e.Metrics(); m.Sheds != 0 {
		t.Errorf("sheds = %d, want 0", m.Sheds)
	}
}
