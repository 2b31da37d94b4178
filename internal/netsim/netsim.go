package netsim

import (
	"fmt"
	"slices"
	"sort"

	"netpowerprop/internal/device"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/power"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// Routing selects how flows pick among their ECMP paths.
type Routing int

const (
	// HashECMP spreads flows by 5-tuple hash — today's load balancing.
	HashECMP Routing = iota
	// ConcentrateRouting greedily picks the path that touches the fewest
	// switches not already carrying traffic, so unused switches can sleep
	// (§4.2's "concentrate the network traffic on as few devices as
	// possible" applied at the routing layer). Deterministic: flows are
	// routed in input order.
	ConcentrateRouting
)

// String names the routing mode.
func (r Routing) String() string {
	switch r {
	case HashECMP:
		return "ecmp"
	case ConcentrateRouting:
		return "concentrate"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Sim runs flow-level simulations on an explicit fat-tree topology.
type Sim struct {
	Top *fattree.Topology
	// ECMPSeed perturbs deterministic path selection, so repeated runs can
	// explore different ECMP placements reproducibly.
	ECMPSeed uint64
	// Routing selects the path-selection policy (default HashECMP).
	Routing Routing
	// Capacity overrides per-link capacity; absent links default to their
	// topology speed. Used by parking/OCS studies to disable links (0).
	Capacity map[int]units.Bandwidth
	// Faults, when non-nil and non-empty, injects a deterministic link and
	// switch fault timeline into the run: flows reroute around dead links
	// at each fault epoch, flows with no surviving path stall (and
	// accumulate downtime), and the fairness solver sees dead links at
	// zero capacity. A nil or empty trace reproduces the fault-free
	// behavior exactly.
	Faults *fault.Trace
	// Models, when non-nil, delegates per-transfer latency and per-device
	// power to external co-simulation hooks (see Models). Nil keeps the
	// in-process formulas and adds nothing to the hot path.
	Models *Models

	// Paths supplies the topology's ECMP path sets. Nil gives the Sim a
	// private table on its first run; callers running many Sims over one
	// topology share one table (see PathTable). It must be built over Top.
	Paths *PathTable

	// Routing state reused across runs: used marks, by node ID, the
	// switches ConcentrateRouting has already chosen in the current run;
	// slots numbers the pairs a faulted run routes, and alive[slot] caches
	// that pair's surviving paths for one fault epoch.
	used  []bool
	slots map[*pathSet]int32
	alive []aliveFilter

	// Scratch reused so repeated Runs on one Sim allocate nothing in the
	// solve loop.
	scratch runScratch
}

// aliveFilter is one pair's surviving-path indices in fault epoch epoch.
type aliveFilter struct {
	epoch int
	idx   []int
}

// runScratch is the solve state a Sim reuses across runs.
type runScratch struct {
	solver  Solver
	demands []float64
	paths   [][]int
}

// New returns a simulator over a topology.
func New(top *fattree.Topology) *Sim {
	return &Sim{Top: top}
}

// FlowStat reports one flow's outcome.
type FlowStat struct {
	Flow traffic.Flow
	// Path is the chosen link-ID sequence (at the flow's start epoch; a
	// faulted run may reroute the flow in later epochs). It is shared with
	// the Sim's path table: read it, never write its elements.
	Path []int
	// DeliveredBits integrates the achieved rate over the flow lifetime.
	DeliveredBits float64
	// MeanRate is DeliveredBits / lifetime.
	MeanRate units.Bandwidth
	// Downtime is the time the flow spent stalled with every ECMP path
	// dead. Always zero without fault injection.
	Downtime units.Seconds
	// TransferLatency models the flow's completion latency: per-hop
	// forwarding delay plus serialization of the delivered bits at the
	// start-epoch path's bottleneck capacity (TransferLatency), or
	// whatever an attached co-sim latency model returns for the same
	// request.
	TransferLatency units.Seconds
}

// FaultReport summarizes a faulted run.
type FaultReport struct {
	// Events counts trace events within the horizon; Epochs counts the
	// constant-dead-set spans the horizon split into.
	Events int
	Epochs int
	// MissedWakes counts links that came up late ("stuck asleep").
	MissedWakes int
	// StallSeconds sums downtime across flows; StalledFlows counts flows
	// with any downtime.
	StallSeconds units.Seconds
	StalledFlows int
	// Reroutes counts flow-epochs routed while at least one of the pair's
	// ECMP paths was dead (the flow had to steer around a failure).
	Reroutes int
}

// Result is a completed simulation: utilization traces per link and per
// switch, plus flow outcomes. Traces cover [0, Horizon].
type Result struct {
	Horizon     units.Seconds
	LinkTrace   map[int]Trace
	SwitchTrace map[int]Trace
	Flows       []FlowStat
	// Faults reports fault impact; nil when the run had no fault trace.
	Faults *FaultReport
}

// aliveFor returns the indices of ps.paths that avoid every dead link of
// fault epoch epoch, recomputing the pair's cached filter when it was
// last filled for another epoch — the invalidation step after a link
// fails or recovers.
func (s *Sim) aliveFor(slot int32, ps *pathSet, epoch int, dead []bool) []int {
	a := &s.alive[slot]
	if a.epoch == epoch {
		return a.idx
	}
	a.idx = a.idx[:0]
	for i, p := range ps.paths {
		ok := true
		for _, l := range p {
			if dead[l] {
				ok = false
				break
			}
		}
		if ok {
			a.idx = append(a.idx, i)
		}
	}
	a.epoch = epoch
	return a.idx
}

// route is one flow's routing decision within one fault epoch: the index
// of the chosen path in the flow's pair entry. It holds no pointers, so a
// run's route arena costs the collector nothing to scan.
type route struct {
	path int32
	// stalled marks an epoch where every ECMP path crossed a dead link.
	stalled bool
	// rerouted marks an epoch where the flow routed while at least one of
	// its ECMP paths was dead.
	rerouted bool
}

// unrouted stands in for the pair entry of a flow whose window overlaps
// no epoch (it ends at or before time 0): its zero route resolves to an
// empty path.
var unrouted = &pathSet{paths: [][]int{nil}, switches: [][]int{nil}}

// routeFor picks one path (and its switch sequence) per the routing policy
// among the candidates: alive lists the surviving path indices, or is nil
// when every path survives. With no dead links the choice is identical to
// the fault-free policy.
func (s *Sim) routeFor(f traffic.Flow, ps *pathSet, alive []int) route {
	n := len(ps.paths)
	if alive != nil {
		n = len(alive)
	}
	pick := func(k int) int {
		if alive != nil {
			return alive[k]
		}
		return k
	}
	rerouted := alive != nil
	if s.Routing == ConcentrateRouting {
		best, bestNew := pick(0), len(s.Top.Nodes)+1
		for k := 0; k < n; k++ {
			i := pick(k)
			newSwitches := 0
			for _, sw := range ps.switches[i] {
				if !s.used[sw] {
					newSwitches++
				}
			}
			if newSwitches < bestNew {
				best, bestNew = i, newSwitches
			}
		}
		for _, sw := range ps.switches[best] {
			s.used[sw] = true
		}
		return route{path: int32(best), rerouted: rerouted}
	}
	// Inline FNV-1a over (src, dst, seed) in little-endian order — the
	// same bytes the hash.Hash64 version fed, without its allocation. The
	// hash picks among surviving paths, so the fault-free choice (all
	// paths alive) is unchanged.
	h := uint64(14695981039346656037)
	for _, v := range [3]uint64{uint64(f.Src), uint64(f.Dst), s.ECMPSeed} {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	i := pick(int(h % uint64(n)))
	return route{path: int32(i), rerouted: rerouted}
}

// routeAll routes every flow for every fault epoch its window overlaps
// and returns the reroute count. Epochs run outer and flows inner in input
// order, so ConcentrateRouting stays deterministic and each pair's alive
// filter is computed once per epoch. With one epoch this is exactly the
// fault-free routing pass. Path-table lookups are counted locally and
// added to the process-wide counters once.
func (s *Sim) routeAll(states []flowState, tl *fault.Timeline, numEpochs int) (reroutes int, err error) {
	var hits, misses uint64
	defer func() {
		pathHits.Add(hits)
		pathMisses.Add(misses)
	}()
	if n := len(s.Top.Nodes); cap(s.used) < n {
		s.used = make([]bool, n)
	} else {
		s.used = s.used[:n]
		clear(s.used)
	}
	if tl != nil {
		if s.slots == nil {
			s.slots = make(map[*pathSet]int32)
		}
		clear(s.slots)
		s.alive = s.alive[:0]
	}
	for e := 0; e < numEpochs; e++ {
		var dead []bool
		if tl != nil && tl.DeadCount[e] > 0 {
			dead = tl.Dead[e]
		}
		for i := range states {
			st := &states[i]
			if e < st.lo || e >= st.hi {
				continue
			}
			if st.ps == nil {
				ps, hit, err := s.Paths.lookup(st.spec.Src, st.spec.Dst)
				if err != nil {
					return 0, fmt.Errorf("netsim: flow %d: %w", i, err)
				}
				if hit {
					hits++
				} else {
					misses++
				}
				st.ps = ps
				if tl != nil {
					st.slot = s.slotOf(ps)
				}
			}
			var alive []int // nil: every path survives
			if dead != nil {
				alive = s.aliveFor(st.slot, st.ps, e, dead)
				if len(alive) == 0 {
					st.routes[e-st.lo] = route{stalled: true}
					continue
				}
				if len(alive) == len(st.ps.paths) {
					alive = nil
				}
			}
			rt := s.routeFor(st.spec, st.ps, alive)
			if rt.rerouted {
				reroutes++
			}
			st.routes[e-st.lo] = rt
		}
	}
	return reroutes, nil
}

// slotOf numbers a pair for this run's alive filters, reusing the filter
// buffers of earlier runs.
func (s *Sim) slotOf(ps *pathSet) int32 {
	if slot, ok := s.slots[ps]; ok {
		return slot
	}
	slot := int32(len(s.alive))
	s.slots[ps] = slot
	if len(s.alive) < cap(s.alive) {
		s.alive = s.alive[:slot+1]
		s.alive[slot].epoch = -1
	} else {
		s.alive = append(s.alive, aliveFilter{epoch: -1})
	}
	return slot
}

// capacityOf resolves a link's effective capacity.
func (s *Sim) capacityOf(l fattree.Link) units.Bandwidth {
	if s.Capacity != nil {
		if c, ok := s.Capacity[l.ID]; ok {
			return c
		}
	}
	return l.Speed
}

// flowState is one flow's per-epoch routing decisions and running account.
type flowState struct {
	spec traffic.Flow
	// ps is the flow's pair entry, looked up when the flow is first routed;
	// slot numbers the pair for a faulted run's alive filters.
	ps   *pathSet
	slot int32
	// routes[e-lo] is the decision for fault epoch e, for the epochs
	// lo <= e < hi its window overlaps (a fault-free run has one epoch). A
	// window that overlaps no epoch keeps one unrouted entry.
	lo, hi    int
	routes    []route
	delivered float64
	downtime  units.Seconds
}

// interval is one constant-rate span of the sweep: the flows active during
// [t0,t1) live at activeIdx[off:off+n].
type interval struct {
	t0, t1 units.Seconds
	off, n int
}

// RunParallel is Run. It stays only because perfbench/trace.go calls it,
// and is removed with the next change to the benchmark.
func (s *Sim) RunParallel(flows []traffic.Flow, _ int) (*Result, error) { return s.Run(flows) }

// Run simulates the flows and returns utilization traces. The horizon is
// the latest flow end time (0 horizon is an error: nothing to simulate).
// Intervals are solved serially: the engine already fans a request's rows
// out across cores, and each row runs its simulations with Run.
func (s *Sim) Run(flows []traffic.Flow) (*Result, error) {
	if s.Top == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("netsim: no flows")
	}
	if s.Paths == nil {
		s.Paths = NewPathTable(s.Top)
	} else if s.Paths.top != s.Top {
		return nil, fmt.Errorf("netsim: path table is over a different topology")
	}
	states := make([]flowState, len(flows))
	var horizon units.Seconds
	for i, f := range flows {
		if f.End <= f.Start {
			return nil, fmt.Errorf("netsim: flow %d empty window [%v,%v]", i, f.Start, f.End)
		}
		if f.Demand <= 0 {
			return nil, fmt.Errorf("netsim: flow %d non-positive demand %v", i, f.Demand)
		}
		states[i] = flowState{spec: f}
		if f.End > horizon {
			horizon = f.End
		}
	}

	// Compile the fault trace into epochs of constant dead-link sets. A
	// nil timeline (no faults) leaves a single clean epoch spanning the
	// whole horizon, so the fault-free path is untouched.
	var tl *fault.Timeline
	if s.Faults != nil && s.Faults.Len() > 0 {
		var err error
		tl, err = fault.Compile(s.Faults, horizon, len(s.Top.Links), s.Top.LinksOf)
		if err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
	}
	numEpochs := 1
	if tl != nil {
		numEpochs = tl.NumEpochs()
	}

	// Size each flow's routes to the epochs [lo, hi) its window overlaps:
	// one contiguous run, because epochs tile [0, horizon).
	total := 0
	for i := range states {
		st := &states[i]
		if st.spec.End > 0 {
			st.hi = 1
		}
		if tl != nil {
			st.lo = tl.EpochAt(st.spec.Start)
			st.hi = sort.Search(numEpochs, func(e int) bool { return tl.Starts[e] >= st.spec.End })
		}
		if st.hi == st.lo {
			st.ps = unrouted
		}
		total += max(st.hi-st.lo, 1)
	}
	routeArena := make([]route, total)
	for i := range states {
		n := max(states[i].hi-states[i].lo, 1)
		states[i].routes, routeArena = routeArena[:n:n], routeArena[n:]
	}
	reroutes, err := s.routeAll(states, tl, numEpochs)
	if err != nil {
		return nil, err
	}

	// Event times: every flow boundary and epoch start plus 0 and horizon,
	// sorted unique, so each interval lies within exactly one epoch.
	times := make([]units.Seconds, 0, 2*len(states)+numEpochs+1)
	times = append(times, 0, horizon)
	for i := range states {
		times = append(times, states[i].spec.Start, states[i].spec.End)
	}
	if tl != nil {
		times = append(times, tl.Starts[1:]...)
	}
	slices.Sort(times)
	times = slices.Compact(times)

	// Sweep the sorted start/end events once to snapshot each interval's
	// active flows, replacing the O(intervals × flows) rescan. Flow order
	// within an interval is (start, input index) — deterministic.
	byStart := make([]int, len(states))
	for i := range byStart {
		byStart[i] = i
	}
	slices.SortStableFunc(byStart, func(a, b int) int {
		sa, sb := states[a].spec.Start, states[b].spec.Start
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	})
	intervals := make([]interval, 0, len(times)-1)
	var activeIdx []int // arena: every interval's active-flow snapshot
	cur := make([]int, 0, len(states))
	next := 0
	for ti := 0; ti+1 < len(times); ti++ {
		t0, t1 := times[ti], times[ti+1]
		for next < len(byStart) && states[byStart[next]].spec.Start <= t0 {
			cur = append(cur, byStart[next])
			next++
		}
		k := 0
		for _, fi := range cur {
			if states[fi].spec.End > t0 {
				cur[k] = fi
				k++
			}
		}
		cur = cur[:k]
		intervals = append(intervals, interval{t0: t0, t1: t1, off: len(activeIdx), n: len(cur)})
		activeIdx = append(activeIdx, cur...)
	}

	// Epoch starts are event times, so each interval sits inside exactly
	// one epoch; a single forward walk labels them all.
	epochOf := make([]int, len(intervals))
	if tl != nil {
		e := 0
		for k := range intervals {
			for e+1 < numEpochs && tl.Starts[e+1] <= intervals[k].t0 {
				e++
			}
			epochOf[k] = e
		}
	}

	caps := make([]float64, len(s.Top.Links))
	for _, l := range s.Top.Links {
		caps[l.ID] = float64(s.capacityOf(l))
	}
	// Per-epoch capacities: dead links drop to zero so the max-min solver
	// cannot place traffic on them. Clean epochs share the base slice.
	epochCaps := [][]float64{caps}
	if tl != nil {
		epochCaps = make([][]float64, numEpochs)
		for e := range epochCaps {
			if tl.DeadCount[e] == 0 {
				epochCaps[e] = caps
				continue
			}
			ec := make([]float64, len(caps))
			copy(ec, caps)
			for l, d := range tl.Dead[e] {
				if d {
					ec[l] = 0
				}
			}
			epochCaps[e] = ec
		}
	}

	// Walk the intervals in time order: solve each one's fairness problem,
	// then accumulate delivered bits, per-link and per-switch rate sums,
	// and traces. Stalled flows are excluded from the solve and accrue
	// downtime instead.
	res := &Result{
		Horizon:     horizon,
		LinkTrace:   make(map[int]Trace, len(s.Top.Links)),
		SwitchTrace: make(map[int]Trace),
	}
	switchIDs := s.Top.SwitchIDs()
	for _, l := range s.Top.Links {
		res.LinkTrace[l.ID] = nil
	}
	for _, sw := range switchIDs {
		res.SwitchTrace[sw] = nil
	}
	linkRate := make([]float64, len(s.Top.Links))
	switchRate := make([]float64, len(s.Top.Nodes))
	sc := &s.scratch
	for k, iv := range intervals {
		clear(linkRate)
		clear(switchRate)
		epoch := epochOf[k]
		idxs := activeIdx[iv.off : iv.off+iv.n]
		sc.demands, sc.paths = sc.demands[:0], sc.paths[:0]
		for _, fi := range idxs {
			st := &states[fi]
			if rt := &st.routes[epoch-st.lo]; !rt.stalled {
				sc.demands = append(sc.demands, float64(st.spec.Demand))
				sc.paths = append(sc.paths, st.ps.paths[rt.path])
			}
		}
		var rates []float64
		if len(sc.demands) > 0 {
			if rates, err = sc.solver.Solve(sc.demands, sc.paths, epochCaps[epoch]); err != nil {
				return nil, err
			}
		}
		dt := float64(iv.t1 - iv.t0)
		r := 0
		for _, fi := range idxs {
			st := &states[fi]
			rt := &st.routes[epoch-st.lo]
			if rt.stalled {
				st.downtime += iv.t1 - iv.t0
				continue
			}
			rate := rates[r]
			r++
			st.delivered += rate * dt
			for _, l := range st.ps.paths[rt.path] {
				linkRate[l] += rate
			}
			for _, sw := range st.ps.switches[rt.path] {
				switchRate[sw] += rate
			}
		}
		for _, l := range s.Top.Links {
			res.LinkTrace[l.ID] = res.LinkTrace[l.ID].append(iv.t0, iv.t1, units.Bandwidth(linkRate[l.ID]))
		}
		for _, sw := range switchIDs {
			res.SwitchTrace[sw] = res.SwitchTrace[sw].append(iv.t0, iv.t1, units.Bandwidth(switchRate[sw]))
		}
	}

	res.Flows = make([]FlowStat, len(states))
	for i := range states {
		st := &states[i]
		life := float64(st.spec.End - st.spec.Start)
		var path []int // the start epoch's route; none if it stalled
		if rt := st.routes[0]; !rt.stalled {
			path = st.ps.paths[rt.path]
		}
		// Bottleneck over base capacities of the start-epoch path; a
		// disabled (zero-capacity) link zeroes the bottleneck and
		// TransferLatency charges hop delay only.
		var bottleneck float64
		for pi, l := range path {
			if c := caps[l]; pi == 0 || c < bottleneck {
				bottleneck = c
			}
		}
		lat := TransferLatency(len(path), st.delivered, bottleneck)
		if s.Models != nil && s.Models.Latency != nil {
			req := LatencyRequest{Src: st.spec.Src, Dst: st.spec.Dst, Hops: len(path), Bits: st.delivered, BottleneckBps: bottleneck}
			if v, err := s.Models.Latency(req); err == nil {
				lat = v
			}
		}
		res.Flows[i] = FlowStat{
			Flow:            st.spec,
			Path:            path,
			DeliveredBits:   st.delivered,
			MeanRate:        units.Bandwidth(st.delivered / life),
			Downtime:        st.downtime,
			TransferLatency: lat,
		}
	}
	if tl != nil {
		rep := &FaultReport{
			Events:      tl.Events,
			Epochs:      numEpochs,
			MissedWakes: tl.MissedWakes,
			Reroutes:    reroutes,
		}
		for i := range states {
			if d := states[i].downtime; d > 0 {
				rep.StallSeconds += d
				rep.StalledFlows++
			}
		}
		res.Faults = rep
	}
	return res, nil
}

// EnergyReport is the baseline network energy of a simulation under a
// uniform device proportionality: switches as two-state devices, optical
// transceivers on inter-switch links (two per link, drawing power whenever
// the link is up).
type EnergyReport struct {
	SwitchEnergy      units.Energy
	TransceiverEnergy units.Energy
	// BusySwitchSeconds sums switch busy time, for efficiency metrics.
	BusySwitchSeconds units.Seconds
	// Horizon echoes the simulated time span.
	Horizon units.Seconds
}

// Total returns switch plus transceiver energy.
func (r EnergyReport) Total() units.Energy { return r.SwitchEnergy + r.TransceiverEnergy }

// Energy integrates baseline network energy over a result. proportionality
// applies to every device; law selects the power-vs-load behavior.
func (s *Sim) Energy(res *Result, proportionality float64, law PowerLaw) (EnergyReport, error) {
	var rep EnergyReport
	rep.Horizon = res.Horizon
	switchModel, err := power.NewModel(device.SwitchMaxPower, proportionality)
	if err != nil {
		return rep, err
	}
	for _, sw := range s.Top.SwitchIDs() {
		tr := res.SwitchTrace[sw]
		e, err := s.deviceEnergy("switch", sw, switchModel, device.SwitchCapacity, law, tr)
		if err != nil {
			return rep, fmt.Errorf("netsim: switch %d: %w", sw, err)
		}
		rep.SwitchEnergy += e
		rep.BusySwitchSeconds += tr.BusyTime()
	}
	for _, l := range s.Top.Links {
		if !l.Optical {
			continue
		}
		xp, err := device.TransceiverPower(l.Speed)
		if err != nil {
			return rep, err
		}
		m, err := power.NewModel(2*xp, proportionality)
		if err != nil {
			return rep, err
		}
		e, err := s.deviceEnergy("link", l.ID, m, s.capacityOf(l), law, res.LinkTrace[l.ID])
		if err != nil {
			return rep, fmt.Errorf("netsim: link %d: %w", l.ID, err)
		}
		rep.TransceiverEnergy += e
	}
	return rep, nil
}

// deviceEnergy integrates one device's trace, delegating to the co-sim
// power hook when attached and failing closed to the in-process model on
// hook error.
func (s *Sim) deviceEnergy(dev string, id int, m power.Model, capacity units.Bandwidth, law PowerLaw, tr Trace) (units.Energy, error) {
	if s.Models != nil && s.Models.Power != nil {
		req := PowerRequest{
			Device:          dev,
			ID:              id,
			Max:             m.Max,
			Proportionality: m.Proportionality,
			Law:             law,
			Capacity:        capacity,
			Trace:           tr,
		}
		if e, err := s.Models.Power(req); err == nil {
			return e, nil
		}
	}
	return tr.Energy(m, capacity, law)
}
