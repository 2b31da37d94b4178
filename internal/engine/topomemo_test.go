package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"netpowerprop/internal/netsim"
)

// reset empties the memo and sets its budget.
func (m *topoMemo) reset(budget int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = budget
	m.entries = map[topoKey]*topoEntry{}
}

// retained reports the bytes the memo holds right now.
func (m *topoMemo) retained() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retainedLocked()
}

// answer computes one scenario request and returns its JSON.
func answer(t *testing.T, name string, params map[string]float64) []byte {
	t.Helper()
	req, err := Request{Op: OpScenario, Scenario: name, Params: params}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlan(context.Background(), req)
	if err != nil {
		t.Fatalf("%s %v: %v", name, params, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTopoMemoBounded: topologies requests over many distinct host counts
// keep the memo within its byte budget, evicting least recently used
// topologies, and every answer — from a warm, a refilled or an evicted
// entry — is byte-identical to the answer of a cold memo.
func TestTopoMemoBounded(t *testing.T) {
	const budget = 3 << 20
	t.Cleanup(func() { memo.reset(topoMemoBudget) })
	var hostCounts []int
	for h := 8; h <= 30; h += 2 {
		hostCounts = append(hostCounts, h)
	}
	// Revisit early (evicted) and late (still memoized) host counts with a
	// new seed, so the repeats compute instead of matching a cached row.
	hostCounts = append(hostCounts, 8, 12, 28, 30)
	type probe struct {
		params map[string]float64
		warm   []byte
	}
	var probes []probe
	memo.reset(budget)
	keys := map[int]bool{}
	for i, h := range hostCounts {
		params := map[string]float64{"hosts": float64(h), "iters": 1, "seed": float64(i + 1)}
		probes = append(probes, probe{params: params, warm: answer(t, "topologies", params)})
		if got := memo.retained(); got > budget {
			t.Fatalf("after hosts=%d the memo retains %d bytes, budget %d", h, got, budget)
		}
		keys[h] = true
	}
	memo.mu.Lock()
	kept := len(memo.entries)
	memo.mu.Unlock()
	if zoo := len(answerRows(t, probes[0].warm)); kept == 0 || kept >= zoo*len(keys) {
		t.Fatalf("memo kept %d of %d topologies: want some evicted, some kept", kept, zoo*len(keys))
	}
	for _, p := range probes {
		memo.reset(topoMemoBudget)
		if cold := answer(t, "topologies", p.params); !bytes.Equal(p.warm, cold) {
			t.Errorf("hosts=%v: memoized answer differs from a cold memo's", p.params["hosts"])
		}
	}
}

// answerRows returns the table rows of a scenario answer.
func answerRows(t *testing.T, b []byte) [][]string {
	t.Helper()
	var res Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	return res.Table.Rows
}

// TestFaultsShareOneTable: a faults request's simulations route over one
// memoized table, so a repeat with a new seed enumerates nothing and
// answers exactly as a cold memo does.
func TestFaultsShareOneTable(t *testing.T) {
	t.Cleanup(func() { memo.reset(topoMemoBudget) })
	memo.reset(topoMemoBudget)
	first := map[string]float64{"seed": 3, "iters": 2}
	answer(t, "faults", first)
	repeat := map[string]float64{"seed": 4, "iters": 2}
	_, misses0 := netsim.PathTableCounts()
	warm := answer(t, "faults", repeat)
	if _, misses1 := netsim.PathTableCounts(); misses1 != misses0 {
		t.Errorf("warm faults request enumerated %d pairs, want 0", misses1-misses0)
	}
	memo.reset(topoMemoBudget)
	if cold := answer(t, "faults", repeat); !bytes.Equal(warm, cold) {
		t.Error("memoized faults answer differs from a cold memo's")
	}
}
