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

// sharingCase is one simulator configuration the shared-table tests run.
type sharingCase struct {
	label   string
	top     *fattree.Topology
	routing netsim.Routing
	faults  *fault.Trace
	flows   []traffic.Flow
}

// sharingCases covers a native Clos and a zoo topology (whose detour
// paths give fault rerouting a choice), both routing modes, and a clean
// and two differently faulted runs.
func sharingCases(t *testing.T) []sharingCase {
	t.Helper()
	clos, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	fly, _, err := topo.Build("dragonfly", topo.Spec{Hosts: 16, LinkSpeed: 100 * units.Gbps})
	if err != nil {
		t.Fatal(err)
	}
	var cases []sharingCase
	for _, top := range []*fattree.Topology{clos, fly} {
		flows, err := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
			Rate: 20 * units.Gbps, Pattern: traffic.AllToAll}.Flows(2)
		if err != nil {
			t.Fatal(err)
		}
		var optical []int
		for _, l := range top.Links {
			if l.Optical {
				optical = append(optical, l.ID)
			}
		}
		traces := []*fault.Trace{nil}
		for _, seed := range []uint64{11, 12} {
			tr, err := fault.Generate(fault.GenConfig{
				Horizon: 2, Links: optical, Flaps: 6, MTTR: 0.3, PermanentFailures: 1,
				Switches: top.SwitchIDs(), SwitchFailures: 1,
				WakeStuckProb: 0.25, WakeStuckExtra: 0.3,
			}, seed)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr)
		}
		for _, routing := range []netsim.Routing{netsim.HashECMP, netsim.ConcentrateRouting} {
			for i, tr := range traces {
				label := fmt.Sprintf("%d-switch/%v/trace%d", len(top.SwitchIDs()), routing, i)
				cases = append(cases, sharingCase{label, top, routing, tr, flows})
			}
		}
	}
	return cases
}

func (c sharingCase) sim(paths *netsim.PathTable) *netsim.Sim {
	s := netsim.New(c.top)
	s.Paths = paths
	return c.configure(s)
}

func (c sharingCase) configure(s *netsim.Sim) *netsim.Sim {
	s.Routing = c.routing
	s.Faults = c.faults
	return s
}

// TestSharedPathTableMatchesPrivate: goroutines running Sims that share
// one PathTable per topology get exactly the results of fresh Sims with
// private tables, whichever goroutine fills a pair first. Half the
// goroutines reuse one Sim per topology across cases in their own order,
// so routing state left by one run must not leak into the next. Under -race (ci.sh
// test) it also shows published entries are read without data races.
func TestSharedPathTableMatchesPrivate(t *testing.T) {
	cases := sharingCases(t)
	want := make([]*netsim.Result, len(cases))
	for i, c := range cases {
		res, err := c.sim(nil).Run(c.flows)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if c.faults != nil && (res.Faults == nil || res.Faults.Reroutes == 0) {
			t.Fatalf("%s: faulted run rerouted nothing", c.label)
		}
		want[i] = res
	}
	tables := map[*fattree.Topology]*netsim.PathTable{}
	for _, c := range cases {
		if tables[c.top] == nil {
			tables[c.top] = netsim.NewPathTable(c.top)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sims := map[*fattree.Topology]*netsim.Sim{}
			for k := range cases {
				i := (g*5 + k) % len(cases)
				c := cases[i]
				// Odd goroutines reuse one Sim per topology; even ones
				// take a fresh Sim over the shared table for every case.
				s := sims[c.top]
				if s == nil || g%2 == 0 {
					s = netsim.New(c.top)
					s.Paths = tables[c.top]
					sims[c.top] = s
				}
				got, err := c.configure(s).Run(c.flows)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, c.label, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %s: shared-table result differs from private", g, c.label)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlowPathAppendIsolated: FlowStat.Path shares the path table's
// storage with capacity equal to its length, so a caller appending to it
// gets a copy and later runs over the table are unchanged.
func TestFlowPathAppendIsolated(t *testing.T) {
	for _, c := range sharingCases(t) {
		table := netsim.NewPathTable(c.top)
		first, err := c.sim(table).Run(c.flows)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		want, err := c.sim(nil).Run(c.flows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Flows {
			p := first.Flows[i].Path
			if cap(p) != len(p) {
				t.Fatalf("%s: flow %d path has spare capacity %d", c.label, i, cap(p)-len(p))
			}
			grown := append(p, -1)
			grown[0] = -1
		}
		again, err := c.sim(table).Run(c.flows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: appending to a returned path changed a later run", c.label)
		}
	}
}

// TestPathTableTopologyMismatch: a Sim refuses a table built over another
// topology instead of routing over the wrong graph.
func TestPathTableTopologyMismatch(t *testing.T) {
	a, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	s := netsim.New(a)
	s.Paths = netsim.NewPathTable(b)
	h := a.Hosts()
	if _, err := s.Run([]traffic.Flow{{Src: h[0], Dst: h[1], Demand: units.Gbps, Start: 0, End: 1}}); err == nil {
		t.Fatal("Run accepted a path table over a different topology")
	}
}

// TestAliveFiltersResetPerRun: a Sim reused across runs with different
// fault traces recomputes each pair's surviving paths, even when both
// runs number their fault epochs alike.
func TestAliveFiltersResetPerRun(t *testing.T) {
	top, err := fattree.BuildThreeTier(4, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	h := top.Hosts()
	flows := []traffic.Flow{{Src: h[0], Dst: h[len(h)-1], Demand: 10 * units.Gbps, Start: 0, End: 1}}
	s := netsim.New(top)
	var last *netsim.Result
	for i := 0; i < 2; i++ {
		// Kill the core-facing link the previous run chose, from t=0, so
		// each run has the single epoch 0 with a different dead link.
		tr := &fault.Trace{}
		if last == nil {
			last, err = s.Run(flows)
			if err != nil {
				t.Fatal(err)
			}
		}
		tr.LinkDown(0, last.Flows[0].Path[2])
		s.Faults = tr
		got, err := s.Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		fresh := netsim.New(top)
		fresh.Faults = tr
		want, err := fresh.Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: reused Sim routed %v, fresh Sim %v", i, got.Flows[0].Path, want.Flows[0].Path)
		}
		last = got
	}
}
