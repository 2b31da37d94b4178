package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netpowerprop/internal/topo"
)

// TestParallelRowsMatchesSerial: the concurrent row fan-out must visit
// every row exactly once, for row counts below, at, and above the worker
// count, so a plan's typed rows assemble exactly as a serial loop's.
func TestParallelRowsMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 64} {
		want := make([][]string, n)
		for i := range want {
			want[i] = []string{fmt.Sprintf("row-%d", i), fmt.Sprintf("%d", i*i)}
		}
		got := make([][]string, n)
		var visits atomic.Int64
		err := parallelRows(n, func(i int) error {
			visits.Add(1)
			got[i] = []string{fmt.Sprintf("row-%d", i), fmt.Sprintf("%d", i*i)}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) || visits.Load() != int64(n) {
			t.Errorf("n=%d: %d visits, parallel rows differ from serial:\ngot  %v\nwant %v", n, visits.Load(), got, want)
		}
	}
}

// TestParallelRowsErrorOrder: when several rows fail, the lowest-index
// error is reported, matching what a serial loop would surface.
func TestParallelRowsErrorOrder(t *testing.T) {
	errLow := errors.New("row 2 failed")
	errHigh := errors.New("row 9 failed")
	err := parallelRows(12, func(i int) error {
		switch i {
		case 2:
			return errLow
		case 9:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Errorf("error = %v, want lowest-index error %v", err, errLow)
	}
}

// TestParallelRowsStopsAfterError: once a row fails, no further rows are
// claimed, so a canceled request does not walk the rest of a long plan.
func TestParallelRowsStopsAfterError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 100000
	var ran atomic.Int64
	err := parallelRows(n, func(i int) error {
		ran.Add(1)
		if i >= 10 {
			return context.Canceled
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 1000 {
		t.Errorf("%d of %d rows ran after the first failure", got, n)
	}
}

// TestParallelRowsStragglerDoesNotHoldRows: while one row is stuck, the
// other workers take every remaining row. A fixed share per worker would
// queue some rows behind the stuck one, and it would time out.
func TestParallelRowsStragglerDoesNotHoldRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 8
	var done atomic.Int64
	others := make(chan struct{})
	err := parallelRows(n, func(i int) error {
		if i == 0 {
			select {
			case <-others:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("rows 1..%d still waiting behind row 0", n-1)
			}
		}
		if done.Add(1) == n-1 {
			close(others)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScenariosParallelDeterministic: every registered scenario must
// produce identical tables across repeated runs — the parallel row fan-out
// may not perturb row order or contents.
func TestScenariosParallelDeterministic(t *testing.T) {
	for name := range scenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			req, err := Request{Op: OpScenario, Scenario: name}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			first, err := runPlan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runPlan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("scenario %q is not deterministic across runs", name)
			}
		})
	}
}

// TestTopologiesScenario: the zoo comparison has one row per registered
// generator, in name order, with every cell populated.
func TestTopologiesScenario(t *testing.T) {
	req, err := Request{
		Op: OpScenario, Scenario: "topologies",
		Params: map[string]float64{"hosts": 12, "iters": 1},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl == nil {
		t.Fatal("no table")
	}
	names := topo.Names()
	if len(tbl.Rows) != len(names) {
		t.Fatalf("table has %d rows, zoo has %d generators", len(tbl.Rows), len(names))
	}
	for i, row := range tbl.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d topology = %q, want %q", i, row[0], names[i])
		}
		if len(row) != len(tbl.Headers) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tbl.Headers))
		}
		for c, cell := range row {
			if cell == "" {
				t.Errorf("row %d (%s) column %q empty", i, row[0], tbl.Headers[c])
			}
		}
	}
}

// TestTopologiesRejects: the scenario validates its parameter envelope.
func TestTopologiesRejects(t *testing.T) {
	for _, params := range []map[string]float64{
		{"hosts": 2},                 // too few hosts for a low-load phase
		{"lowload": 1.5},             // not a fraction
		{"level": 0},                 // no offered load
		{"iters": 0},                 // nothing to simulate
		{"hosts": 4, "lowload": 0.9}, // low-load phase leaves no idle hosts
	} {
		req, err := Request{Op: OpScenario, Scenario: "topologies", Params: params}.Normalize()
		if err != nil {
			continue // rejected at normalization is fine too
		}
		if _, err := runPlan(context.Background(), req); err == nil {
			t.Errorf("params %v accepted", params)
		}
	}
}

// TestPerOpMetrics: computations are attributed to their op, and every
// registered op has an entry even when idle.
func TestPerOpMetrics(t *testing.T) {
	e := New(Options{})
	if _, _, err := e.Do(context.Background(), Request{Op: OpWhatIf}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Do(context.Background(), Request{Op: OpWhatIf}); err != nil {
		t.Fatal(err) // cache hit: must not count as a computation
	}
	if _, _, err := e.Do(context.Background(), Request{Op: OpCost}); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if len(m.PerOp) != len(allOps) {
		t.Errorf("PerOp has %d entries, want %d", len(m.PerOp), len(allOps))
	}
	if got := m.PerOp[OpWhatIf].Count; got != 1 {
		t.Errorf("whatif count = %d, want 1", got)
	}
	if got := m.PerOp[OpCost].Count; got != 1 {
		t.Errorf("cost count = %d, want 1", got)
	}
	if got := m.PerOp[OpTable3].Count; got != 0 {
		t.Errorf("idle table3 count = %d, want 0", got)
	}
	if m.PerOp[OpWhatIf].Seconds < 0 {
		t.Errorf("negative whatif seconds %v", m.PerOp[OpWhatIf].Seconds)
	}
	var sum uint64
	for _, st := range m.PerOp {
		sum += st.Count
	}
	if sum != m.Computations {
		t.Errorf("per-op counts sum to %d, total computations %d", sum, m.Computations)
	}
}
