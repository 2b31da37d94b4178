package netsim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// poolCase is one simulation the pooled-state tests run.
type poolCase struct {
	label   string
	top     *fattree.Topology
	routing netsim.Routing
	faults  *fault.Trace
	flows   []traffic.Flow
}

// poolCases mixes topologies of different sizes (a k=4 and a k=6 fat
// tree, a 16-host dragonfly and a 24-host railopt), both routing modes and
// clean and faulted runs, so a pooled state is resized up and down between
// the runs that draw it.
func poolCases(t *testing.T) []poolCase {
	t.Helper()
	var tops []*fattree.Topology
	for _, k := range []int{4, 6} {
		top, err := fattree.BuildThreeTier(k, 100*units.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	for _, b := range []struct {
		name  string
		hosts int
	}{{"dragonfly", 16}, {"railopt", 24}} {
		top, _, err := topo.Build(b.name, topo.Spec{Hosts: b.hosts, LinkSpeed: 100 * units.Gbps})
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	var cases []poolCase
	for ti, top := range tops {
		flows, err := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
			Rate: 20 * units.Gbps, Pattern: traffic.AllToAll}.Flows(1 + ti%2)
		if err != nil {
			t.Fatal(err)
		}
		var optical []int
		for _, l := range top.Links {
			if l.Optical {
				optical = append(optical, l.ID)
			}
		}
		tr, err := fault.Generate(fault.GenConfig{
			Horizon: 1, Links: optical, Flaps: 5, MTTR: 0.2, PermanentFailures: 1,
			Switches: top.SwitchIDs(), SwitchFailures: 1,
		}, uint64(ti+3))
		if err != nil {
			t.Fatal(err)
		}
		for _, routing := range []netsim.Routing{netsim.HashECMP, netsim.ConcentrateRouting} {
			for _, faults := range []*fault.Trace{nil, tr} {
				label := fmt.Sprintf("top%d/%v/faulted=%v", ti, routing, faults != nil)
				cases = append(cases, poolCase{label, top, routing, faults, flows})
			}
		}
	}
	return cases
}

func (c poolCase) run(paths *netsim.PathTable) (*netsim.Result, error) {
	s := netsim.New(c.top)
	s.Paths, s.Routing, s.Faults = paths, c.routing, c.faults
	return s.Run(c.flows)
}

// TestPooledRunStateConcurrent: 8 goroutines run a fresh Sim per case over
// one shared path table per topology, in different orders, so each run
// draws whatever state the pool hands it. Every result must equal a
// serial run of a fresh Sim with a private table, and scribbling over a
// returned result must not reach any later run. Under -race (ci.sh test)
// it also shows pooled state never crosses goroutines mid-run.
func TestPooledRunStateConcurrent(t *testing.T) {
	cases := poolCases(t)
	want := make([]*netsim.Result, len(cases))
	for i, c := range cases {
		res, err := c.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		want[i] = res
	}
	tables := map[*fattree.Topology]*netsim.PathTable{}
	for _, c := range cases {
		if tables[c.top] == nil {
			tables[c.top] = netsim.NewPathTable(c.top)
		}
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds*len(cases); k++ {
				i := (g*7 + k*(1+g%3)) % len(cases)
				c := cases[i]
				got, err := c.run(tables[c.top])
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, c.label, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %s: pooled run differs from a serial fresh run", g, c.label)
					return
				}
				// The result is the caller's: overwrite its traces and
				// flow accounts in place.
				for _, tr := range got.LinkTrace {
					for j := range tr {
						tr[j].Rate = -1
					}
				}
				for _, tr := range got.SwitchTrace {
					for j := range tr {
						tr[j].Rate = -1
					}
				}
				for j := range got.Flows {
					got.Flows[j].DeliveredBits = -1
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmFaultedRunAllocs: a warm faulted Run allocates its Result, its
// fault timeline and nothing that grows with flows or intervals. Four
// times the flows (and intervals) over the same topology and fault trace
// must not raise the count, which stays under a fixed bound.
func TestWarmFaultedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	var optical []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	tr, err := fault.Generate(fault.GenConfig{
		Horizon: 2, Links: optical, Flaps: 6, MTTR: 0.3, PermanentFailures: 1,
		WakeStuckProb: 0.25, WakeStuckExtra: 0.3,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(iters int) (float64, int) {
		job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: units.Seconds(2) / units.Seconds(iters),
			CommRatio: 0.5, Rate: 20 * units.Gbps, Pattern: traffic.AllToAll}
		flows, err := job.Flows(iters)
		if err != nil {
			t.Fatal(err)
		}
		s := netsim.New(top)
		s.Routing = netsim.ConcentrateRouting
		s.Faults = tr
		res, err := s.Run(flows) // warm the path table and the pool
		if err != nil {
			t.Fatal(err)
		}
		segments := 0
		for _, tr := range res.LinkTrace {
			segments += len(tr)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := s.Run(flows); err != nil {
				t.Fatal(err)
			}
		})
		return n, segments
	}
	small, segSmall := allocs(2)
	large, segLarge := allocs(8)
	t.Logf("warm faulted Run: %.1f allocs (%d segments), %.1f allocs at 4x flows (%d segments)", small, segSmall, large, segLarge)
	if segLarge <= segSmall {
		t.Fatalf("4x flows gave %d trace segments, not more than %d: the sizes do not differ", segLarge, segSmall)
	}
	// One spare allocation absorbs a pool refill during the measurement.
	if large > small+1 {
		t.Errorf("allocs grew with flows and intervals: %.1f at 4x flows, %.1f at 1x", large, small)
	}
	const bound = 60
	if small > bound || large > bound {
		t.Errorf("warm faulted Run allocates %.1f / %.1f times, want at most %d", small, large, bound)
	}
}
