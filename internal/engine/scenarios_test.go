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

// TestParallelRowsMatchesSerial: the concurrent row builder must assemble
// exactly the table a serial loop would, for row counts below, at, and
// above the worker count.
func TestParallelRowsMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 64} {
		row := func(i int) ([]string, error) {
			return []string{fmt.Sprintf("row-%d", i), fmt.Sprintf("%d", i*i)}, nil
		}
		want := make([][]string, n)
		for i := 0; i < n; i++ {
			want[i], _ = row(i)
		}
		got, err := parallelRows(n, row)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: parallel rows differ from serial:\ngot  %v\nwant %v", n, got, want)
		}
	}
}

// TestParallelRowsErrorOrder: when several rows fail, the lowest-index
// error is reported, matching what a serial loop would surface.
func TestParallelRowsErrorOrder(t *testing.T) {
	errLow := errors.New("row 2 failed")
	errHigh := errors.New("row 9 failed")
	_, err := parallelRows(12, func(i int) ([]string, error) {
		switch i {
		case 2:
			return nil, errLow
		case 9:
			return nil, errHigh
		}
		return []string{"ok"}, nil
	})
	if !errors.Is(err, errLow) {
		t.Errorf("error = %v, want lowest-index error %v", err, errLow)
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
	_, err := parallelRows(n, func(i int) ([]string, error) {
		if i == 0 {
			select {
			case <-others:
				return []string{"0"}, nil
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("rows 1..%d still waiting behind row 0", n-1)
			}
		}
		if done.Add(1) == n-1 {
			close(others)
		}
		return []string{fmt.Sprint(i)}, nil
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
			first, err := compute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			second, err := compute(context.Background(), req)
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
	res, err := compute(context.Background(), req)
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
		if _, err := compute(context.Background(), req); err == nil {
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
