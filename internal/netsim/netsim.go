package netsim

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"
	"sort"
	"sync"

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

// Sim runs flow-level simulations on an explicit fat-tree topology. A Sim
// holds only configuration and its path table. Everything a run builds
// and discards (flow accounts, the route arena, event times, alive
// filters, solver scratch, rate and trace buffers) lives in a runState
// that Run draws from a process-wide pool and returns when it is done, so
// a Sim built fresh for every simulation runs as warm as a reused one.
// Distinct Sims may run concurrently, also over one shared PathTable; a
// single Sim may not.
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

// runState is the scratch one Run needs beyond its Result. Run takes it
// from runPool, sizes each buffer for its topology and flows (growing,
// never shrinking), and releases it afterwards. Nothing in a Result
// points into it.
type runState struct {
	// states are the flows' accounts and routes their per-epoch routing
	// decisions (one arena). times are the sorted event times, byStart the
	// flow indices in start order and cur the sweep's active flows.
	states  []flowState
	routes  []route
	times   []units.Seconds
	byStart []int32
	cur     []int32

	// used marks, by node ID, the switches ConcentrateRouting has chosen
	// in this run. A faulted run numbers the pairs it routes for their
	// alive filters: slots[pair] is 1 + the pair's index in alive (0: not
	// numbered yet), where pair is the entry's index in its path table,
	// and alive[i] caches that pair's surviving paths for one fault epoch.
	// bits is the filters' path bitset scratch.
	used  []bool
	slots []int32
	alive []aliveFilter
	bits  []uint64

	// caps holds base link capacities and epochCaps the current fault
	// epoch's (dead links at zero). linkRate and switchRate sum the current
	// interval's rates by link and node ID. switches lists the topology's
	// switch node IDs.
	caps, epochCaps      []float64
	linkRate, switchRate []float64
	switches             []int

	// Traces are kept by column: link l is column l and node n column
	// len(links)+n. open[c] is column c's current segment; a rate change
	// closes it into segs, the run's segment log in time order. pos is the
	// result's per-column arena offsets.
	open []Segment
	segs []columnSegment
	pos  []int32

	solver  Solver
	demands []float64
	paths   [][]int
}

var runPool = sync.Pool{New: func() any { return new(runState) }}

// release clears the state's pointers into path tables, so a pooled state
// keeps no evicted topology alive, and returns it to the pool.
func (rs *runState) release() {
	clear(rs.states)
	clear(rs.paths[:cap(rs.paths)])
	runPool.Put(rs)
}

// columnSegment is one closed trace segment of column col.
type columnSegment struct {
	col int32
	seg Segment
}

// record extends column c's open segment over an interval starting at t0
// with the given rate, so consecutive intervals at one rate share a
// segment. When the rate differs it closes the open segment and opens a
// new one; first marks the run's first interval, which only opens.
func (rs *runState) record(c int, t0 units.Seconds, rate float64, first bool) {
	if !first {
		if float64(rs.open[c].Rate) == rate {
			return
		}
		rs.close(c, t0)
	}
	rs.open[c] = Segment{Start: t0, Rate: units.Bandwidth(rate)}
}

// close ends column c's open segment at end and logs it.
func (rs *runState) close(c int, end units.Seconds) {
	seg := rs.open[c]
	seg.End = end
	rs.segs = append(rs.segs, columnSegment{int32(c), seg})
}

// aliveFilter is one pair's surviving-path indices in fault epoch epoch.
type aliveFilter struct {
	epoch int
	idx   []int
}

// slotOf numbers a pair for this run's alive filters, reusing the filter
// buffers of earlier runs. A pair its table did not publish (not two
// hosts) is enumerated per lookup and gets a slot per lookup.
func (rs *runState) slotOf(ps *pathSet) int32 {
	if ps.pair >= 0 && rs.slots[ps.pair] > 0 {
		return rs.slots[ps.pair] - 1
	}
	slot := int32(len(rs.alive))
	if len(rs.alive) < cap(rs.alive) {
		rs.alive = rs.alive[:slot+1]
		rs.alive[slot].epoch = -1
	} else {
		rs.alive = append(rs.alive, aliveFilter{epoch: -1})
	}
	if ps.pair >= 0 {
		rs.slots[ps.pair] = slot + 1
	}
	return slot
}

// aliveFor returns the indices of ps.paths that avoid every dead link of
// fault epoch epoch, refilling the pair's cached filter when it was last
// filled for another epoch — the invalidation step after a link fails or
// recovers. A refill starts from every path and clears, for each dead link
// in the pair's link union, the paths that cross it, so it costs the
// union's length rather than every path's hops.
func (rs *runState) aliveFor(slot int32, ps *pathSet, epoch int, dead []bool) []int {
	a := &rs.alive[slot]
	if a.epoch == epoch {
		return a.idx
	}
	n := len(ps.paths)
	w := (n + 63) / 64
	bits := rs.bits[:0]
	for i := 0; i < w; i++ {
		bits = append(bits, ^uint64(0))
	}
	if r := n % 64; r != 0 {
		bits[w-1] = 1<<r - 1
	}
	for j, l := range ps.links {
		if dead[l] {
			for i, m := range ps.mask[j*w : (j+1)*w] {
				bits[i] &^= m
			}
		}
	}
	rs.bits = bits
	a.idx = a.idx[:0]
	for i, b := range bits {
		for ; b != 0; b &= b - 1 {
			a.idx = append(a.idx, 64*i+mathbits.TrailingZeros64(b))
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
var unrouted = &pathSet{paths: [][]int{nil}, switches: [][]int32{nil}, pair: -1}

// ecmpHash is FNV-1a over (src, dst, seed) in little-endian order — the
// bytes a hash.Hash64 version would be fed, without its allocation.
func ecmpHash(f traffic.Flow, seed uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [3]uint64{uint64(f.Src), uint64(f.Dst), seed} {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	return h
}

// routeFor picks one path per the routing policy among the candidates:
// alive lists the surviving path indices, or is nil when every path
// survives. With no dead links the choice is identical to the fault-free
// policy.
func (s *Sim) routeFor(rs *runState, st *flowState, alive []int) route {
	rt := route{rerouted: alive != nil}
	if s.Routing == ConcentrateRouting {
		i := concentratePick(st.ps, alive, rs.used)
		for _, sw := range st.ps.switches[i] {
			rs.used[sw] = true
		}
		rt.path = int32(i)
		return rt
	}
	// The flow's hash picks among surviving paths, so the fault-free
	// choice (all paths alive) is unchanged.
	if alive == nil {
		rt.path = int32(st.hash % uint64(len(st.ps.paths)))
	} else {
		rt.path = int32(alive[st.hash%uint64(len(alive))])
	}
	return rt
}

// concentratePick returns the index in ps.paths of the candidate visiting
// the fewest switches not yet marked in used, the first such on ties; the
// candidates are alive, or every path when alive is nil. A path's count
// stops once it reaches the best so far, and the scan stops at a path
// with no new switch: neither can change the pick.
func concentratePick(ps *pathSet, alive []int, used []bool) int {
	n := len(ps.paths)
	if alive != nil {
		n = len(alive)
	}
	best, bestNew := 0, math.MaxInt
	for k := 0; k < n; k++ {
		i := k
		if alive != nil {
			i = alive[k]
		}
		fresh := 0
		for _, sw := range ps.switches[i] {
			if !used[sw] {
				fresh++
				if fresh >= bestNew {
					break
				}
			}
		}
		if fresh < bestNew {
			best, bestNew = i, fresh
			if fresh == 0 {
				break
			}
		}
	}
	return best
}

// routeAll routes every flow for every fault epoch its window overlaps
// and returns the reroute count. Epochs run outer and flows inner in input
// order, so ConcentrateRouting stays deterministic and each pair's alive
// filter is computed once per epoch. With one epoch this is exactly the
// fault-free routing pass. Path-table lookups are counted locally and
// added to the process-wide counters once.
func (s *Sim) routeAll(rs *runState, tl *fault.Timeline, numEpochs int) (reroutes int, err error) {
	var hits, misses uint64
	defer func() {
		pathHits.Add(hits)
		pathMisses.Add(misses)
	}()
	rs.used = resize(rs.used, len(s.Top.Nodes))
	if tl != nil {
		rs.slots = resize(rs.slots, len(s.Paths.pairs))
		rs.alive = rs.alive[:0]
	}
	hashed := s.Routing != ConcentrateRouting
	for e := 0; e < numEpochs; e++ {
		var dead []bool
		if tl != nil && tl.DeadCount[e] > 0 {
			dead = tl.Dead[e]
		}
		for i := range rs.states {
			st := &rs.states[i]
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
				if hashed {
					st.hash = ecmpHash(st.spec, s.ECMPSeed)
				}
				if tl != nil {
					st.slot = rs.slotOf(ps)
				}
			}
			var alive []int // nil: every path survives
			if dead != nil {
				alive = rs.aliveFor(st.slot, st.ps, e, dead)
				if len(alive) == 0 {
					st.routes[e-st.lo] = route{stalled: true}
					continue
				}
				if len(alive) == len(st.ps.paths) {
					alive = nil
				}
			}
			rt := s.routeFor(rs, st, alive)
			if rt.rerouted {
				reroutes++
			}
			st.routes[e-st.lo] = rt
		}
	}
	return reroutes, nil
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
	// hash is its ECMP hash under HashECMP, and slot numbers the pair for
	// a faulted run's alive filters.
	ps   *pathSet
	hash uint64
	slot int32
	// routes[e-lo] is the decision for fault epoch e, for the epochs
	// lo <= e < hi its window overlaps (a fault-free run has one epoch). A
	// window that overlaps no epoch keeps one unrouted entry.
	lo, hi    int
	routes    []route
	delivered float64
	downtime  units.Seconds
}

// RunParallel is Run. It stays only because perfbench/trace.go calls it,
// and is removed with the next change to the benchmark.
func (s *Sim) RunParallel(flows []traffic.Flow, _ int) (*Result, error) { return s.Run(flows) }

// Run simulates the flows and returns utilization traces. The horizon is
// the latest flow end time (0 horizon is an error: nothing to simulate).
// Run routes every flow for each fault epoch its window overlaps, then
// sweeps the event times once, solving and accumulating each interval as
// it reaches it. It is serial: the engine already fans a request's rows
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
	rs := runPool.Get().(*runState)
	defer rs.release()
	rs.states = resize(rs.states, len(flows))
	states := rs.states
	var horizon units.Seconds
	for i, f := range flows {
		if f.End <= f.Start {
			return nil, fmt.Errorf("netsim: flow %d empty window [%v,%v]", i, f.Start, f.End)
		}
		if f.Demand <= 0 {
			return nil, fmt.Errorf("netsim: flow %d non-positive demand %v", i, f.Demand)
		}
		states[i].spec = f
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
	rs.routes = resize(rs.routes, total)
	arena := rs.routes
	for i := range states {
		n := max(states[i].hi-states[i].lo, 1)
		states[i].routes, arena = arena[:n:n], arena[n:]
	}
	reroutes, err := s.routeAll(rs, tl, numEpochs)
	if err != nil {
		return nil, err
	}
	if err := s.sweep(rs, tl, horizon); err != nil {
		return nil, err
	}
	return s.result(rs, tl, horizon, reroutes), nil
}

// sweep walks the sorted event times once. For each interval [t0,t1) it
// admits the flows that started, retires the ones that ended, steps to
// the fault epoch holding t0, solves the interval's max-min problem over
// the active flows that are not stalled, and accumulates delivered bits,
// downtime and the per-link and per-switch traces. Active flows stay in
// (start, input index) order, so every solve sees a deterministic order.
func (s *Sim) sweep(rs *runState, tl *fault.Timeline, horizon units.Seconds) error {
	states := rs.states
	numEpochs := 1
	if tl != nil {
		numEpochs = tl.NumEpochs()
	}

	// Event times: every flow boundary and epoch start plus 0 and horizon,
	// sorted unique, so each interval lies within exactly one epoch.
	times := append(rs.times[:0], 0, horizon)
	for i := range states {
		times = append(times, states[i].spec.Start, states[i].spec.End)
	}
	if tl != nil {
		times = append(times, tl.Starts[1:]...)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	rs.times = times

	byStart := rs.byStart[:0]
	for i := range states {
		byStart = append(byStart, int32(i))
	}
	slices.SortStableFunc(byStart, func(a, b int32) int {
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
	rs.byStart = byStart

	nl := len(s.Top.Links)
	rs.caps = resize(rs.caps, nl)
	for _, l := range s.Top.Links {
		rs.caps[l.ID] = float64(s.capacityOf(l))
	}
	rs.linkRate = resize(rs.linkRate, nl)
	rs.switchRate = resize(rs.switchRate, len(s.Top.Nodes))
	rs.open = resize(rs.open, nl+len(s.Top.Nodes))
	rs.segs = rs.segs[:0]
	rs.switches = rs.switches[:0]
	for _, n := range s.Top.Nodes {
		if n.IsSwitch() {
			rs.switches = append(rs.switches, n.ID)
		}
	}

	epoch := 0
	caps := rs.capacityIn(tl, epoch)
	cur := rs.cur[:0]
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
		// Epoch starts are event times, so t0 reaching the next epoch's
		// start moves the whole interval into it.
		for epoch+1 < numEpochs && tl.Starts[epoch+1] <= t0 {
			epoch++
			caps = rs.capacityIn(tl, epoch)
		}

		// Stalled flows are left out of the solve and accrue downtime.
		clear(rs.linkRate)
		clear(rs.switchRate)
		rs.demands, rs.paths = rs.demands[:0], rs.paths[:0]
		for _, fi := range cur {
			st := &states[fi]
			if rt := &st.routes[epoch-st.lo]; !rt.stalled {
				rs.demands = append(rs.demands, float64(st.spec.Demand))
				rs.paths = append(rs.paths, st.ps.paths[rt.path])
			}
		}
		var rates []float64
		if len(rs.demands) > 0 {
			var err error
			if rates, err = rs.solver.Solve(rs.demands, rs.paths, caps); err != nil {
				rs.cur = cur
				return err
			}
		}
		dt := float64(t1 - t0)
		r := 0
		for _, fi := range cur {
			st := &states[fi]
			rt := &st.routes[epoch-st.lo]
			if rt.stalled {
				st.downtime += t1 - t0
				continue
			}
			rate := rates[r]
			r++
			st.delivered += rate * dt
			for _, l := range st.ps.paths[rt.path] {
				rs.linkRate[l] += rate
			}
			for _, sw := range st.ps.switches[rt.path] {
				rs.switchRate[sw] += rate
			}
		}
		for _, l := range s.Top.Links {
			rs.record(l.ID, t0, rs.linkRate[l.ID], ti == 0)
		}
		for _, sw := range rs.switches {
			rs.record(nl+sw, t0, rs.switchRate[sw], ti == 0)
		}
	}
	rs.cur = cur
	if last := len(times) - 1; last > 0 {
		for _, l := range s.Top.Links {
			rs.close(l.ID, times[last])
		}
		for _, sw := range rs.switches {
			rs.close(nl+sw, times[last])
		}
	}
	return nil
}

// capacityIn returns the link capacities of fault epoch e: the base
// capacities, with the epoch's dead links at zero so the max-min solver
// cannot place traffic on them.
func (rs *runState) capacityIn(tl *fault.Timeline, e int) []float64 {
	if tl == nil || tl.DeadCount[e] == 0 {
		return rs.caps
	}
	rs.epochCaps = append(rs.epochCaps[:0], rs.caps...)
	for l, d := range tl.Dead[e] {
		if d {
			rs.epochCaps[l] = 0
		}
	}
	return rs.epochCaps
}

// result builds the run's Result from the swept state: the traces, copied
// into one exact-size arena, the flow outcomes, and the fault report.
func (s *Sim) result(rs *runState, tl *fault.Timeline, horizon units.Seconds, reroutes int) *Result {
	res := &Result{
		Horizon:     horizon,
		LinkTrace:   make(map[int]Trace, len(s.Top.Links)),
		SwitchTrace: make(map[int]Trace, len(rs.switches)),
	}
	// Sort the segment log by column into one exact-size arena, keeping
	// each column's time order. Afterwards pos[c] is the end of column
	// c's run and the start of column c+1's. Each trace is a
	// capacity-limited sub-slice, so appending to one copies instead of
	// writing into its neighbor.
	pos := resize(rs.pos, len(rs.open))
	rs.pos = pos
	for _, cs := range rs.segs {
		pos[cs.col]++
	}
	var start int32
	for c, n := range pos {
		pos[c] = start
		start += n
	}
	arena := make([]Segment, len(rs.segs))
	for _, cs := range rs.segs {
		arena[pos[cs.col]] = cs.seg
		pos[cs.col]++
	}
	trace := func(c int) Trace {
		var lo int32
		if c > 0 {
			lo = pos[c-1]
		}
		if lo == pos[c] {
			return nil
		}
		return Trace(arena[lo:pos[c]:pos[c]])
	}
	nl := len(s.Top.Links)
	for _, l := range s.Top.Links {
		res.LinkTrace[l.ID] = trace(l.ID)
	}
	for _, sw := range rs.switches {
		res.SwitchTrace[sw] = trace(nl + sw)
	}

	res.Flows = make([]FlowStat, len(rs.states))
	for i := range rs.states {
		st := &rs.states[i]
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
			if c := rs.caps[l]; pi == 0 || c < bottleneck {
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
			Epochs:      tl.NumEpochs(),
			MissedWakes: tl.MissedWakes,
			Reroutes:    reroutes,
		}
		for i := range rs.states {
			if d := rs.states[i].downtime; d > 0 {
				rep.StallSeconds += d
				rep.StalledFlows++
			}
		}
		res.Faults = rep
	}
	return res
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
