package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"netpowerprop/internal/admit"
	"netpowerprop/internal/core"
	"netpowerprop/internal/engine"
	"netpowerprop/internal/fattree"
	"netpowerprop/internal/fault"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
	"netpowerprop/internal/workload"
)

// span is one timed call into a layer's public function. Spans of one
// request share Trace, the index of the request's root span.
type span struct {
	Name          string
	Trace, Parent int // Parent is -1 for a root
	Start, End    time.Duration
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, so the same replay code runs traced and untraced.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span under parent (-1 opens a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	root := id
	if parent >= 0 {
		root = t.spans[parent].Trace
	}
	t.spans = append(t.spans, span{Name: name, Trace: root, Parent: parent, Start: time.Since(t.base)})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.base)
	}
}

// rename names a span after the call revealed which path it took.
func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// stat aggregates the spans of one name.
type stat struct {
	N     int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time children cover
}

// Mean is the mean span duration in nanoseconds.
func (s stat) Mean() float64 { return float64(s.Total) / float64(s.N) }

// aggregate sums spans by name, over the spans whose root satisfies keep.
// A span's self time is its duration minus its children's durations;
// children of one span never overlap, since one goroutine makes the calls.
func (t *tracer) aggregate(keep func(root span) bool) map[string]stat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]stat{}
	for i, s := range t.spans {
		if !keep(t.spans[s.Trace]) {
			continue
		}
		st := out[s.Name]
		st.N++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// replayer re-enacts requests in-process along cmd/serve's path: the
// admission decision, the engine call, and the response encoding, each a
// call into that layer's public API. The engine and admission controller
// are configured as serverArgs configures the server's.
type replayer struct {
	eng *engine.Engine
	adm *admit.Controller
	tr  *tracer
	buf bytes.Buffer
}

func newReplayer(tr *tracer) *replayer {
	eng := engine.New(engine.Options{CacheSize: serverCache, MaxQueue: serverQueue})
	return &replayer{eng: eng, tr: tr,
		adm: admit.New(admit.Options{Capacity: eng.Capacity(), Pending: eng.Pending})}
}

// apiResponse and batchResponse mirror cmd/serve's response bodies.
type apiResponse struct {
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Result    *engine.Result `json:"result"`
}

type batchItem struct {
	Result *engine.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	Cached bool           `json:"cached,omitempty"`
	Shared bool           `json:"shared,omitempty"`
}

type batchResponse struct {
	Items     []batchItem `json:"items"`
	Rows      int         `json:"rows"`
	Cached    int         `json:"cached"`
	Errors    int         `json:"errors"`
	Shed      int         `json:"shed"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// replay answers one request and returns the root span's id.
func (p *replayer) replay(ctx context.Context, r request) (int, error) {
	tr := p.tr
	root := tr.begin("serve.request", -1)
	defer tr.end(root)
	rows := 1
	if r.Kind == kindBatch {
		rows = len(r.Eng)
	}
	a := tr.begin("admit.admit", root)
	d := p.adm.Admit("default", admit.Normal, rows)
	tr.end(a)
	if !d.OK {
		return root, fmt.Errorf("%s: admission refused: %s", r.Target, d.Reason)
	}
	start := time.Now()
	p.buf.Reset()
	switch r.Kind {
	case kindSingle:
		e := tr.begin("engine.do", root)
		res, cached, err := p.eng.Do(ctx, r.Eng[0])
		tr.end(e)
		if err != nil {
			return root, fmt.Errorf("%s: %w", r.Target, err)
		}
		if cached {
			tr.rename(e, "engine.do_hit")
		} else {
			tr.rename(e, "engine.do_miss."+string(r.Eng[0].Op))
		}
		w := tr.begin("serve.encode", root)
		enc := json.NewEncoder(&p.buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(apiResponse{Cached: cached, ElapsedMS: msSince(start), Result: res})
		tr.end(w)
		return root, err
	case kindStream:
		e := tr.begin("engine.stream", root)
		enc := json.NewEncoder(&p.buf)
		res, err := p.eng.Stream(ctx, r.Eng[0], func(i int, data json.RawMessage) error {
			f := tr.begin("serve.encode_frame", e)
			defer tr.end(f)
			return enc.Encode(streamFrame{Row: i, Data: data})
		})
		tr.end(e)
		if err != nil {
			return root, fmt.Errorf("%s: %w", r.Target, err)
		}
		f := tr.begin("serve.encode_frame", root)
		err = enc.Encode(streamEnd{End: true, Rows: len(res.Sweep)})
		tr.end(f)
		return root, err
	default:
		e := tr.begin("engine.batch", root)
		items := p.eng.DoBatch(ctx, r.Eng)
		tr.end(e)
		w := tr.begin("serve.encode_batch", root)
		resp := batchResponse{Items: make([]batchItem, len(items)), Rows: len(items)}
		for i, it := range items {
			resp.Items[i] = batchItem{Result: it.Result, Cached: it.Cached, Shared: it.Shared}
			if it.Cached {
				resp.Cached++
			}
			if it.Err != nil {
				resp.Items[i].Error = it.Err.Error()
				resp.Errors++
			}
		}
		resp.ElapsedMS = msSince(start)
		err := json.NewEncoder(&p.buf).Encode(resp)
		tr.end(w)
		if err == nil && resp.Errors > 0 {
			err = fmt.Errorf("batch: %d rows failed", resp.Errors)
		}
		return root, err
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// probe times the layers below the engine for one request, each call a
// root span of its own: normalize and key, a cache hit on the request
// (just answered, so cached), and the core model calls its answer needs.
// Simulation requests are re-enacted separately (probeSim).
func (p *replayer) probe(ctx context.Context, r request) error {
	tr := p.tr
	for _, er := range r.Eng {
		id := tr.begin("engine.normalize", -1)
		norm, err := er.Normalize()
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("engine.key", -1)
		_ = norm.Key()
		tr.end(id)
		if norm.Op == engine.OpScenario {
			continue
		}
		cfg, err := coreConfig(norm)
		if err != nil {
			return err
		}
		id = tr.begin("core.new", -1)
		_, err = core.New(cfg)
		tr.end(id)
		if err != nil {
			return err
		}
		switch norm.Op {
		case engine.OpTable3:
			id = tr.begin("core.savings_grid", -1)
			_, err = core.ComputeSavingsGrid(cfg, core.Table3Bandwidths(),
				core.Table3Proportionalities(), cfg.NetworkProportionality)
			tr.end(id)
		case engine.OpCost:
			id = tr.begin("core.cost", -1)
			err = costOf(cfg, *norm.Price, *norm.Cooling)
			tr.end(id)
		}
		if err != nil {
			return err
		}
	}
	if r.Kind == kindSingle {
		id := tr.begin("engine.do", -1)
		_, cached, err := p.eng.Do(ctx, r.Eng[0])
		tr.end(id)
		if err != nil {
			return err
		}
		if cached {
			tr.rename(id, "engine.do_hit")
		} else {
			tr.rename(id, "engine.do_miss."+string(r.Eng[0].Op))
		}
	}
	return nil
}

// coreConfig builds the core.Config of a normalized analytical request,
// as the engine does.
func coreConfig(n engine.Request) (core.Config, error) {
	bw, err := units.ParseBandwidth(n.Bandwidth)
	if err != nil {
		return core.Config{}, err
	}
	mode, err := fattree.ParseInterpMode(n.Interp)
	if err != nil {
		return core.Config{}, err
	}
	wl, err := workload.New(units.Seconds(1-n.CommRatio), units.Seconds(n.CommRatio), n.GPUs, bw)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{GPUs: n.GPUs, Bandwidth: bw, Workload: wl,
		ComputeProportionality: *n.ComputeProportionality,
		NetworkProportionality: *n.NetworkProportionality,
		Interp:                 mode, Overlap: n.Overlap}, nil
}

// costOf is §3.2's computation: power saved at the request's
// proportionality against a 10% baseline, annualized.
func costOf(cfg core.Config, price, cooling float64) error {
	grid, err := core.ComputeSavingsGrid(cfg, []units.Bandwidth{cfg.Bandwidth},
		[]float64{cfg.NetworkProportionality}, 0.10)
	if err != nil {
		return err
	}
	_, err = core.CostModel{PricePerKWh: price, CoolingOverhead: cooling}.Annualize(grid.Cell(0, 0).SavedPower)
	return err
}

// simCounts accumulates the simulator's work counts over probed runs.
type simCounts struct {
	Runs, Flows, Segments, Reroutes, Epochs int
	Mallocs, Bytes                          uint64
}

// probeSim re-enacts the simulation work of a scenario request the way
// the engine does it (internal/engine/topologies.go and faults.go),
// calling the topology, traffic, fault and simulator layers directly.
// Rows run one after another here; the server fans them out.
func probeSim(tr *tracer, norm engine.Request, counts *simCounts) error {
	switch norm.Scenario {
	case "topologies":
		return probeTopologies(tr, norm, counts)
	case "faults":
		return probeFaults(tr, norm, counts)
	}
	return nil
}

// probeTopologies re-enacts a topologies request: per zoo fabric, build
// it, enumerate all host pairs' paths cold, then the low-load, full-load
// and faulted phases on one concentrating simulator, and the energy of
// the first two at 10% and full proportionality.
func probeTopologies(tr *tracer, norm engine.Request, counts *simCounts) error {
	hosts := int(norm.Params["hosts"])
	iters := int(norm.Params["iters"])
	level := norm.Params["level"]
	speed, err := units.ParseBandwidth(norm.Bandwidth)
	if err != nil {
		return err
	}
	activeLow := int(math.Ceil(norm.Params["lowload"] * float64(hosts)))
	if activeLow < 2 {
		activeLow = 2
	}
	for _, name := range topo.Names() {
		id := tr.begin("topo.build", -1)
		top, _, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: speed})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := probePaths(tr, top); err != nil {
			return fmt.Errorf("%s paths: %w", name, err)
		}
		hs := top.Hosts()
		var optical []int
		for _, l := range top.Links {
			if l.Optical {
				optical = append(optical, l.ID)
			}
		}
		type phase struct {
			active []int
			faults bool
		}
		phases := []phase{{hs[:activeLow], false}, {hs, false}}
		if len(optical) > 0 {
			phases = append(phases, phase{hs, true})
		}
		sim, serial := newSim(top, netsim.ConcentrateRouting), newSim(top, netsim.ConcentrateRouting)
		var results []*netsim.Result
		for _, ph := range phases {
			job := traffic.Job{ID: 1, Hosts: ph.active, Period: 1, CommRatio: 0.5,
				Rate:    units.Bandwidth(level * float64(speed) / float64(len(ph.active)-1)),
				Pattern: traffic.AllToAll}
			id := tr.begin("traffic.flows", -1)
			flows, err := job.Flows(iters)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s flows: %w", name, err)
			}
			var trace *fault.Trace
			if ph.faults {
				id := tr.begin("fault.generate", -1)
				trace, err = fault.Generate(fault.GenConfig{
					Horizon: units.Seconds(iters), Links: optical,
					Flaps: int(norm.Params["flaps"]), MTTR: units.Seconds(norm.Params["mttr"]),
					PermanentFailures: int(norm.Params["perm"]),
					WakeStuckProb:     0.25, WakeStuckExtra: units.Seconds(norm.Params["mttr"]),
				}, uint64(norm.Params["seed"]))
				tr.end(id)
				if err != nil {
					return fmt.Errorf("%s faults: %w", name, err)
				}
			}
			res, err := simulate(tr, sim, serial, flows, trace, counts)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, res)
		}
		for _, res := range results[:2] {
			for _, prop := range []float64{0.1, 1.0} {
				id := tr.begin("netsim.energy", -1)
				_, err := sim.Energy(res, prop, netsim.TwoState)
				tr.end(id)
				if err != nil {
					return fmt.Errorf("%s energy: %w", name, err)
				}
			}
		}
	}
	return nil
}

// probeFaults re-enacts a faults request: build the three-tier fat tree
// and its all-to-all flows once, then per row (failure-rate multiplier ×
// gating level) generate the seeded trace, simulate the full fabric on it,
// gate part of the core in a clone of it and simulate that, each on a
// fresh simulator.
func probeFaults(tr *tracer, norm engine.Request, counts *simCounts) error {
	iters := int(norm.Params["iters"])
	seed := uint64(norm.Params["seed"])
	reconfig := fault.ReconfigModel{Base: units.Seconds(norm.Params["reconfig"]),
		SlowProb: norm.Params["slowprob"], SlowFactor: 4, FailProb: norm.Params["failprob"]}
	id := tr.begin("topo.build", -1)
	top, err := fattree.BuildThreeTier(int(norm.Params["radix"]), 100*units.Gbps)
	tr.end(id)
	if err != nil {
		return err
	}
	if err := probePaths(tr, top); err != nil {
		return fmt.Errorf("paths: %w", err)
	}
	job := traffic.Job{ID: 1, Hosts: top.Hosts(), Period: 1, CommRatio: 0.5,
		Rate: 10 * units.Gbps, Pattern: traffic.AllToAll}
	id = tr.begin("traffic.flows", -1)
	flows, err := job.Flows(iters)
	tr.end(id)
	if err != nil {
		return err
	}
	var optical, core []int
	for _, l := range top.Links {
		if l.Optical {
			optical = append(optical, l.ID)
		}
	}
	for _, sw := range top.SwitchIDs() {
		if top.Nodes[sw].Kind == fattree.KindCore {
			core = append(core, sw)
		}
	}
	for _, mult := range []int{1, 2, 4} {
		for _, level := range []float64{0.25, 0.5} {
			id := tr.begin("fault.generate", -1)
			base, err := fault.Generate(fault.GenConfig{
				Horizon: units.Seconds(iters) * job.Period, Links: optical,
				Flaps: int(norm.Params["flaps"]) * mult, MTTR: units.Seconds(norm.Params["mttr"]),
				PermanentFailures: mult,
				WakeStuckProb:     norm.Params["stuckprob"], WakeStuckExtra: units.Seconds(norm.Params["stuckextra"]),
			}, seed)
			tr.end(id)
			if err != nil {
				return err
			}
			if _, err := simulate(tr, newSim(top, netsim.HashECMP), newSim(top, netsim.HashECMP), flows, base, counts); err != nil {
				return err
			}
			var failures []units.Seconds
			for _, e := range base.Events() {
				if e.Kind == fault.KindLinkDown && e.At > 0 {
					failures = append(failures, e.At)
				}
			}
			gatedCount := int(level * float64(len(core)))
			if gatedCount < 1 {
				gatedCount = 1
			}
			gated := base.Clone()
			rng := fault.NewRand(seed ^ uint64(mult))
			for i := 0; i < gatedCount; i++ {
				gated.SwitchDown(0, core[i])
			}
			for i, at := range failures {
				if i >= gatedCount {
					break
				}
				gated.SwitchUp(at+reconfig.Sample(rng).Delay, core[i])
			}
			if _, err := simulate(tr, newSim(top, netsim.HashECMP), newSim(top, netsim.HashECMP), flows, gated, counts); err != nil {
				return err
			}
		}
	}
	return nil
}

// probePaths enumerates every host pair's paths on top, timed as one
// fattree.paths span. The simulator memoizes paths per simulator, not per
// topology, so this leaves the simulations after it cold.
func probePaths(tr *tracer, top *fattree.Topology) error {
	hosts := top.Hosts()
	id := tr.begin("fattree.paths", -1)
	defer tr.end(id)
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				if _, err := top.Paths(a, b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newSim returns a simulator on top configured as the engine configures
// its scenario simulators.
func newSim(top *fattree.Topology, routing netsim.Routing) *netsim.Sim {
	s := netsim.New(top)
	s.Routing = routing
	s.Models = engine.SimModels()
	return s
}

// simulate runs flows under faults on sim with RunParallel, as the
// engine does, timed as netsim.run and counted into counts; then the same
// flows on serial with the serial Run, timed as netsim.run_serial for
// comparison. It returns sim's result.
func simulate(tr *tracer, sim, serial *netsim.Sim, flows []traffic.Flow, faults *fault.Trace, counts *simCounts) (*netsim.Result, error) {
	sim.Faults, serial.Faults = faults, faults
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := tr.begin("netsim.run", -1)
	res, err := sim.RunParallel(flows, 0)
	tr.end(id)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	id = tr.begin("netsim.run_serial", -1)
	_, err = serial.Run(flows)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	counts.Runs++
	counts.Flows += len(flows)
	for _, t := range res.LinkTrace {
		counts.Segments += len(t)
	}
	for _, t := range res.SwitchTrace {
		counts.Segments += len(t)
	}
	if res.Faults != nil {
		counts.Reroutes += res.Faults.Reroutes
		counts.Epochs += res.Faults.Epochs
	}
	counts.Mallocs += ms1.Mallocs - ms0.Mallocs
	counts.Bytes += ms1.TotalAlloc - ms0.TotalAlloc
	return res, nil
}

// allocsPerCall counts heap allocations per call of f over n calls.
func allocsPerCall(n int, f func()) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// Replay budget: the share of the measured seconds the in-process replay
// (both passes and the probes) may take, and how many simulation requests
// are re-enacted layer by layer (each re-enactment runs every fabric
// twice).
const (
	replayShare = 0.3
	simProbes   = 2
)

// runTraced is the traced run: the workload's open-loop phase against the
// server (for /metrics deltas and the client's view), the census, then the
// same requests replayed in-process untraced and traced.
func runTraced(ctx context.Context, o options, log io.Writer) (result, error) {
	seq, err := newSequence(o.Workload, o.Seed)
	if err != nil {
		return result{}, err
	}
	sess, _, err := startWarm(ctx, o, seq)
	if err != nil {
		return result{}, err
	}
	sess.cl.close()
	cl := newClient(sess.srv.base, runtime.NumCPU())
	m0, err := scrape(ctx, cl)
	if err != nil {
		return result{}, err
	}
	total := time.Duration(o.Seconds * float64(time.Second))
	steal0, err := readCPUTimes()
	if err != nil {
		return result{}, err
	}
	open := cl.openLoop(ctx, seq.Next, openRate[o.Workload], time.Duration(float64(total)*openShare))
	steal1, err := readCPUTimes()
	if err != nil {
		return result{}, err
	}
	m1, err := scrape(ctx, cl)
	if err != nil {
		return result{}, err
	}
	census := make([]sample, 0, len(censusSet()))
	var buf bytes.Buffer
	for _, r := range censusSet() {
		s := sample{Req: r}
		cl.do(ctx, r, &buf, &s)
		census = append(census, s)
	}
	m2, err := scrape(ctx, cl)
	if err != nil {
		return result{}, err
	}
	conns := cl.dials.Load()
	cl.close()
	sess.srv.stop(10 * time.Second)

	v := newChecker().verify(ctx, append(append([]sample(nil), open...), census...))
	m := map[string]metric{}

	// Client and server views of the open-loop phase.
	var clientNS, bytesSum float64
	okN := 0
	for _, s := range open {
		if s.ok() {
			clientNS += float64(s.Service())
			bytesSum += float64(s.Bytes)
			okN++
		}
	}
	if okN == 0 {
		return result{}, fmt.Errorf("no request of the open-loop phase succeeded")
	}
	clientUS := clientNS / float64(okN) / 1e3
	httpN := apiDelta(m0, m1, "netpowerprop_http_request_duration_seconds_count")
	httpS := apiDelta(m0, m1, "netpowerprop_http_request_duration_seconds_sum")
	computeS := sumDelta(m0, m1, "netpowerprop_engine_compute_duration_seconds_sum{")
	serverUS := httpS / httpN * 1e6
	m["serve.server_us"] = metric{serverUS, "us"}
	m["serve.resp_bytes"] = metric{bytesSum / float64(okN), "bytes"}
	m["serve.residual_us"] = metric{clientUS - serverUS, "us"}
	m["admit.load_shed"] = metric{delta(m0, m2, "netpowerprop_admit_load_shed_total"), "count"}
	hits := delta(m0, m1, "netpowerprop_engine_cache_hits_total")
	misses := delta(m0, m1, "netpowerprop_engine_cache_misses_total")
	m["engine.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	m["engine.computations"] = metric{delta(m0, m1, "netpowerprop_engine_computations_total"), "count"}
	m["engine.shared"] = metric{delta(m0, m1, "netpowerprop_engine_singleflight_shared_total"), "count"}
	m["engine.evictions"] = metric{delta(m0, m1, "netpowerprop_engine_cache_evictions_total"), "count"}
	m["engine.shed"] = metric{delta(m0, m1, "netpowerprop_engine_shed_total"), "count"}
	m["engine.wait_us"] = metric{(httpS - computeS) / httpN * 1e6, "us"}
	for _, op := range reportedOps {
		sum := delta(m0, m2, fmt.Sprintf("netpowerprop_engine_compute_duration_seconds_sum{op=%q}", op))
		n := delta(m0, m2, fmt.Sprintf("netpowerprop_engine_compute_duration_seconds_count{op=%q}", op))
		m["engine.compute_us."+string(op)] = metric{sum / n * 1e6, "us"}
	}
	m["loadgen.p99_ms"] = metric{percentile(sortedCopy(millis(open, sample.Latency)), 99), "ms"}
	m["loadgen.late_p99_ms"] = metric{percentile(sortedCopy(millis(open, sample.Late)), 99), "ms"}
	m["loadgen.sent"] = metric{float64(len(open)), "count"}
	m["loadgen.conns"] = metric{float64(conns), "count"}
	m["loadgen.steal_share"] = metric{stealShare(steal0, steal1), "ratio"}

	// In-process replay of the open-loop requests on two fresh engines in
	// the warm server's state, one untraced and one traced. Each request
	// is replayed on both in turn, so both passes see the same machine
	// state; the difference of their means is the tracing overhead.
	reqs := make([]request, len(open))
	for i, s := range open {
		reqs[i] = s.Req
	}
	plain := newReplayer(newTracer(false))
	tr := newTracer(true)
	traced := newReplayer(tr)
	for _, p := range []*replayer{plain, traced} {
		if err := p.warm(ctx, o.Workload, seq); err != nil {
			return result{}, err
		}
	}
	tr.spans = tr.spans[:0]
	requestRoots := map[int]bool{}
	var simReqs []engine.Request
	var untraced time.Duration
	budget := time.Duration(float64(total) * replayShare)
	t0 := time.Now()
	n := 0
	for n < len(reqs) && (n == 0 || time.Since(t0) < budget) {
		r := reqs[n]
		// Whichever pass goes second finds the request's data in the CPU
		// caches, so the order alternates.
		var root int
		var err error
		if n%2 == 0 {
			root, err = traced.replay(ctx, r)
		}
		if err == nil {
			t := time.Now()
			_, err = plain.replay(ctx, r)
			untraced += time.Since(t)
		}
		if err == nil && n%2 == 1 {
			root, err = traced.replay(ctx, r)
		}
		if err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
		requestRoots[root] = true
		if err := traced.probe(ctx, r); err != nil {
			return result{}, fmt.Errorf("probe %s: %w", r.Target, err)
		}
		if r.Eng[0].Op == engine.OpScenario && len(simReqs) < simProbes {
			simReqs = append(simReqs, r.Eng[0])
		}
		n++
	}
	untracedUS := float64(untraced) / float64(n) / 1e3
	// The census covers layers the workload leaves idle.
	for _, r := range censusSet() {
		if _, err := traced.replay(ctx, r); err != nil {
			return result{}, fmt.Errorf("census replay: %w", err)
		}
		if err := traced.probe(ctx, r); err != nil {
			return result{}, fmt.Errorf("census probe %s: %w", r.Target, err)
		}
		if r.Eng[0].Op == engine.OpScenario && len(simReqs) < simProbes {
			simReqs = append(simReqs, r.Eng[0])
		}
	}
	var sc simCounts
	for _, er := range simReqs {
		norm, err := er.Normalize()
		if err != nil {
			return result{}, err
		}
		if err := probeSim(tr, norm, &sc); err != nil {
			return result{}, fmt.Errorf("simulation probe: %w", err)
		}
	}

	all := tr.aggregate(func(span) bool { return true })
	reqStats := tr.aggregate(func(root span) bool { return root.Name == "serve.request" && requestRoots[root.Trace] })
	mean := func(name string) float64 { return all[name].Mean() }
	m["serve.encode_ns"] = metric{mean("serve.encode"), "ns"}
	m["admit.admit_ns"] = metric{mean("admit.admit"), "ns"}
	m["engine.normalize_ns"] = metric{mean("engine.normalize"), "ns"}
	m["engine.key_ns"] = metric{mean("engine.key"), "ns"}
	m["engine.do_hit_ns"] = metric{mean("engine.do_hit"), "ns"}
	for _, op := range reportedOps {
		m["engine.do_miss_ns."+string(op)] = metric{mean("engine.do_miss." + string(op)), "ns"}
	}
	m["engine.batch_ns"] = metric{mean("engine.batch"), "ns"}
	m["engine.stream_ns"] = metric{mean("engine.stream"), "ns"}
	m["core.new_ns"] = metric{mean("core.new"), "ns"}
	cfg, err := coreConfig(mustNormalize(censusSet()[0].Eng[0]))
	if err != nil {
		return result{}, err
	}
	m["core.new_allocs"] = metric{allocsPerCall(200, func() { _, _ = core.New(cfg) }), "count"}
	m["core.savings_grid_ns"] = metric{mean("core.savings_grid"), "ns"}
	m["core.cost_ns"] = metric{mean("core.cost"), "ns"}
	m["topo.build_ns"] = metric{mean("topo.build"), "ns"}
	m["fattree.paths_ns"] = metric{mean("fattree.paths"), "ns"}
	m["traffic.flows_ns"] = metric{mean("traffic.flows"), "ns"}
	m["fault.generate_ns"] = metric{mean("fault.generate"), "ns"}
	runNS := mean("netsim.run")
	m["netsim.run_ns"] = metric{runNS, "ns"}
	m["netsim.run_serial_ns"] = metric{mean("netsim.run_serial"), "ns"}
	m["netsim.energy_ns"] = metric{mean("netsim.energy"), "ns"}
	runs := float64(sc.Runs)
	m["netsim.flows"] = metric{float64(sc.Flows) / runs, "count"}
	m["netsim.segments"] = metric{float64(sc.Segments) / runs, "count"}
	m["netsim.ns_per_segment"] = metric{runNS * runs / float64(sc.Segments), "ns"}
	m["netsim.allocs_per_run"] = metric{float64(sc.Mallocs) / runs, "count"}
	m["netsim.bytes_per_run"] = metric{float64(sc.Bytes) / runs, "bytes"}
	m["netsim.reroutes"] = metric{float64(sc.Reroutes) / runs, "count"}
	m["netsim.epochs"] = metric{float64(sc.Epochs) / runs, "count"}

	// Layer sum over the replayed workload requests: the self times of
	// the layers on the request path partition the in-process request
	// time; adding the residual (client minus server) should give the
	// client mean. The gap is server time the replay does not reproduce
	// (HTTP parsing, routing, middleware, socket writes).
	layers := map[string]float64{}
	var selfSum float64
	for name, st := range reqStats {
		layer := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			layer = name[:i]
		}
		us := float64(st.Self) / float64(n) / 1e3
		layers[layer] += us
		selfSum += us
	}
	tracedUS := float64(reqStats["serve.request"].Total) / float64(n) / 1e3
	residual := m["serve.residual_us"].Value
	gap := clientUS - (selfSum + residual)
	m["trace.overhead_us"] = metric{tracedUS - untracedUS, "us"}
	m["trace.gap_us"] = metric{gap, "us"}

	fmt.Fprintf(log, "perfbench %s seed %d (traced): %d open-loop requests, %d replayed in-process, %d simulation probes\n",
		o.Workload, o.Seed, len(open), n, len(simReqs))
	fmt.Fprintf(log, "  error_rate %.4g (%d failed, %d wrong of %d)\n", v.ErrorRate(), v.Failed, v.Wrong, v.Attempted)
	reportAnswers(log, v, nil)
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "  layer sum (us per request):")
	for _, name := range names {
		fmt.Fprintf(log, " %s %.2f +", name, layers[name])
	}
	fmt.Fprintf(log, " residual %.2f = %.2f; client mean %.2f; gap %.2f (%.1f%% of client mean)\n",
		residual, selfSum+residual, clientUS, gap, 100*gap/clientUS)
	fmt.Fprintf(log, "  tracing overhead: %.3f us per request (traced %.2f, untraced %.2f)\n",
		tracedUS-untracedUS, tracedUS, untracedUS)
	printMetrics(log, m)
	return result{Correct: v.Wrong == 0, Attempted: v.Attempted, Failed: v.Failed + v.Wrong, Metrics: m}, nil
}

// apiDelta sums the deltas of a per-route HTTP metric over the API
// routes, leaving out the benchmark's own /healthz and /metrics calls.
func apiDelta(before, after promSnapshot, name string) float64 {
	return sumDelta(before, after, name+"{") -
		delta(before, after, name+`{route="GET /healthz"}`) -
		delta(before, after, name+`{route="GET /metrics"}`)
}

// reportedOps are the engine operations the per-op metrics cover.
var reportedOps = []engine.Op{engine.OpWhatIf, engine.OpTable3, engine.OpCost, engine.OpSweep, engine.OpScenario}

// warm brings a replay engine to the state a warm server is in.
func (p *replayer) warm(ctx context.Context, name string, seq *sequence) error {
	for _, r := range warmSet(name, seq) {
		if _, err := p.replay(ctx, r); err != nil {
			return fmt.Errorf("warm replay: %w", err)
		}
	}
	return nil
}

// mustNormalize normalizes a request the benchmark itself built.
func mustNormalize(r engine.Request) engine.Request {
	n, err := r.Normalize()
	if err != nil {
		panic(fmt.Sprintf("normalize %+v: %v", r, err))
	}
	return n
}
