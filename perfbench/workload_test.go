package main

import (
	"strings"
	"testing"

	"netpowerprop/internal/engine"
)

// stream renders the first n requests of a workload's sequence, plus its
// warm-up set, as the bytes the server would see.
func stream(t *testing.T, name string, seed uint64, n int) string {
	t.Helper()
	seq, err := newSequence(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range warmSet(name, seq) {
		b.WriteString(r.wire() + "\n")
	}
	for i := 0; i < n; i++ {
		b.WriteString(seq.Next().wire() + "\n")
	}
	return b.String()
}

func TestSameSeedSameRequestsDifferentSeedDifferent(t *testing.T) {
	for _, name := range workloads {
		a, b := stream(t, name, 7, 400), stream(t, name, 7, 400)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if c := stream(t, name, 8, 400); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newSequence("nope", 1); err == nil {
		t.Fatal("an unknown workload should be refused")
	}
}

// keys returns the canonical engine keys a request asks for.
func keys(t *testing.T, r request) []string {
	t.Helper()
	var out []string
	for _, er := range r.Eng {
		n, err := er.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", r.Target, err)
		}
		out = append(out, n.Key())
	}
	return out
}

func TestWorkloadKeyShapes(t *testing.T) {
	// miss and sim: every measured key is new, and none is a warm-up or
	// census key.
	for _, name := range []string{"miss", "sim"} {
		seq, _ := newSequence(name, 3)
		seen := map[string]bool{}
		for _, r := range append(warmSet(name, seq), censusSet()...) {
			for _, k := range keys(t, r) {
				seen[k] = true
			}
		}
		for i := 0; i < 500; i++ {
			for _, k := range keys(t, seq.Next()) {
				if seen[k] {
					t.Fatalf("%s request %d repeats key %s", name, i, k)
				}
				seen[k] = true
			}
		}
	}
	// hit: about 90% of requests come from the warm pool.
	seq, _ := newSequence("hit", 3)
	pool := map[string]bool{}
	for _, r := range warmSet("hit", seq) {
		pool[keys(t, r)[0]] = true
	}
	inPool := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if pool[keys(t, seq.Next())[0]] {
			inPool++
		}
	}
	if share := float64(inPool) / n; share < 0.87 || share > 0.93 {
		t.Errorf("hit pool share %.3f, want about %.2f", share, hitShare)
	}
}

func TestMissMixAndBatchRows(t *testing.T) {
	seq, _ := newSequence("miss", 1)
	ops := map[string]int{}
	for i := 0; i < 50; i++ {
		r := seq.Next()
		switch r.Kind {
		case kindBatch:
			if len(r.Eng) != batchRows {
				t.Fatalf("batch of %d rows, want %d", len(r.Eng), batchRows)
			}
			ops["batch"]++
		case kindStream:
			if r.Eng[0].Op != engine.OpSweep || !strings.Contains(r.Target, "stream=1") {
				t.Fatalf("stream request %s", r.Target)
			}
			ops["stream"]++
		default:
			ops[string(r.Eng[0].Op)]++
		}
	}
	for _, k := range []string{"whatif", "table3", "cost", "stream", "batch"} {
		if ops[k] != 10 {
			t.Errorf("%s: %d of 50 requests, want 10", k, ops[k])
		}
	}
}
