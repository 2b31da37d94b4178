package main

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"netpowerprop/internal/engine"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/units"
)

// recorder counts the simulator's model calls, which carry each
// completed transfer (endpoints, hops, bits, bottleneck) and each
// device's utilization trace: a fingerprint of the simulations run.
type recorder struct {
	mu    sync.Mutex
	calls map[string]int
}

func (r *recorder) models() *netsim.Models {
	r.calls = map[string]int{}
	note := func(call string) {
		r.mu.Lock()
		r.calls[call]++
		r.mu.Unlock()
	}
	return &netsim.Models{
		Latency: func(q netsim.LatencyRequest) (units.Seconds, error) {
			note(fmt.Sprintf("latency %+v", q))
			return netsim.TransferLatency(q.Hops, q.Bits, q.BottleneckBps), nil
		},
		Power: func(q netsim.PowerRequest) (units.Energy, error) {
			note(fmt.Sprintf("power %+v", q))
			return 0, fmt.Errorf("use the in-process formula")
		},
	}
}

// The simulation probe must re-enact the simulations the engine runs for
// a scenario request: the same transfers and the same device traces.
// Each probed run is simulated twice (RunParallel, then the serial
// comparison), energy is integrated once.
func TestSimProbeMatchesEngine(t *testing.T) {
	t.Cleanup(func() { engine.SetSimModels(nil) })
	for _, name := range []string{"topologies", "faults"} {
		req := scenarioRequest(name, 5).Eng[0]
		var eng, probe recorder
		engine.SetSimModels(eng.models())
		if _, _, err := engine.New(engine.Options{}).Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		engine.SetSimModels(probe.models())
		var sc simCounts
		if err := probeSim(newTracer(true), mustNormalize(req), &sc); err != nil {
			t.Fatal(err)
		}
		engine.SetSimModels(nil)
		if len(eng.calls) == 0 {
			t.Fatalf("%s: the engine made no model calls", name)
		}
		for call, n := range eng.calls {
			want := n
			if call[:len("latency")] == "latency" {
				want = 2 * n
			}
			if probe.calls[call] != want {
				t.Errorf("%s: probe made %q %d times, want %d", name, call[:60], probe.calls[call], want)
				break
			}
		}
		if len(probe.calls) != len(eng.calls) {
			t.Errorf("%s: probe made %d distinct model calls, engine %d", name, len(probe.calls), len(eng.calls))
		}
	}
}
