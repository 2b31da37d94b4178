package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutputs pins the fault sweep and the topology zoo to tables
// recorded in testdata, so a change to the simulator that moves any digit
// fails here rather than only when two runs of one build disagree.
// Regenerate a golden only for an intended change to the numbers:
//
//	go run ./cmd/netsim faults -seed 7 >cmd/netsim/testdata/faults_seed7.golden
//	go run ./cmd/netsim topologies -hosts 16 -seed 7 >cmd/netsim/testdata/topologies_h16_seed7.golden
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"faults_seed7.golden", []string{"faults", "-seed", "7"}},
		{"topologies_h16_seed7.golden", []string{"topologies", "-hosts", "16", "-seed", "7"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := runOK(t, tc.args...); !bytes.Equal([]byte(got), want) {
			t.Errorf("netsim %v differs from testdata/%s:\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, got, want)
		}
	}
}
