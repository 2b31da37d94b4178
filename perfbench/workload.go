package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
	"sync"

	"netpowerprop/internal/engine"
)

// kind is how a request travels over HTTP and how its answer is checked.
type kind int

const (
	// kindSingle is a buffered GET answered by one indented apiResponse.
	kindSingle kind = iota
	// kindStream is a GET with ?stream=1, answered by NDJSON row frames.
	kindStream
	// kindBatch is a POST /v1/batch, answered by one compact body with one
	// item per row.
	kindBatch
)

// request is one generated HTTP request plus the engine requests its
// answer must equal.
type request struct {
	Kind kind
	// Target is the path and query; Body is the POST body (batch only).
	Target string
	Body   []byte
	// Eng holds the engine request(s) the server answers: one for single
	// and stream requests, one per row for a batch.
	Eng []engine.Request
}

// wire is the byte form of a request: what the server sees. Two requests
// with equal wire forms ask for the same answer.
func (r request) wire() string {
	if r.Kind == kindBatch {
		return "POST " + r.Target + " " + string(r.Body)
	}
	return "GET " + r.Target
}

// kindName labels a request for per-kind reports: its op or scenario,
// or "stream" or "batch".
func (r request) kindName() string {
	switch {
	case r.Kind == kindStream:
		return "stream"
	case r.Kind == kindBatch:
		return "batch"
	case r.Eng[0].Op == engine.OpScenario:
		return r.Eng[0].Scenario
	}
	return string(r.Eng[0].Op)
}

// workloads names the benchmark's traffic mixes.
var workloads = []string{"hit", "miss", "sim"}

// bandwidths are the link speeds the generators draw from (Table 3's axis).
var bandwidths = []string{"100G", "200G", "400G", "800G", "1.6T"}

// hitPool is how many parameter sets the hit workload repeats; all fit in
// the server's cache after warm-up.
const hitPool = 16

// hitShare is the share of hit-workload requests drawn from the pool; the
// rest are distinct misses.
const hitShare = 0.9

// batchRows is the row count of every miss-workload /v1/batch request.
const batchRows = 32

// Distinct requests draw their GPU counts from disjoint ranges, so the
// pool, warm-up, census and measured requests never share a cache key.
const (
	poolGPUs   = 1024  // hit pool: poolGPUs + 64*i
	warmGPUs   = 3000  // warm-up requests
	censusGPUs = 3500  // layer census requests
	uniqueGPUs = 10000 // measured distinct requests: uniqueGPUs + offset + n
)

// sequence generates one workload's request stream. The stream depends
// only on the workload and the seed; Next is safe for concurrent use and
// hands out requests in a fixed order, whichever goroutine asks.
type sequence struct {
	mu     sync.Mutex
	name   string
	rng    *rand.Rand
	pool   []request
	offset int // per-seed start of the distinct GPU range
	n      int // requests generated so far
	uniq   int // distinct GPU counts handed out so far
}

// newSequence returns the request stream of a workload for a seed.
func newSequence(name string, seed uint64) (*sequence, error) {
	switch name {
	case "hit", "miss", "sim":
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	s := &sequence{name: name, rng: rand.New(rand.NewPCG(seed, seed^0x5eed5eed))}
	s.offset = s.rng.IntN(1 << 20)
	if name == "hit" {
		for i := 0; i < hitPool; i++ {
			s.pool = append(s.pool, s.single(engine.OpWhatIf, poolGPUs+64*i))
		}
	}
	return s, nil
}

// Next returns the next request of the stream.
func (s *sequence) Next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	switch s.name {
	case "hit":
		if s.rng.Float64() < hitShare {
			return s.pool[s.rng.IntN(len(s.pool))]
		}
		return s.single(engine.OpWhatIf, s.unique())
	case "miss":
		switch s.n % 5 {
		case 0:
			return s.single(engine.OpWhatIf, s.unique())
		case 1:
			return s.single(engine.OpTable3, s.unique())
		case 2:
			return s.single(engine.OpCost, s.unique())
		case 3:
			return streamRequest(s.params(engine.OpSweep, s.unique()))
		default:
			return s.batch(batchRows)
		}
	default: // sim
		scenario := "topologies"
		if s.n%2 == 0 {
			scenario = "faults"
		}
		return scenarioRequest(scenario, uniqueGPUs+s.offset+s.n)
	}
}

// unique returns a GPU count no earlier request of the stream used.
func (s *sequence) unique() int {
	s.uniq++
	return uniqueGPUs + s.offset + s.uniq
}

// params draws the scenario fields shared by the analytical ops. A cost
// request prices an upgrade from the 10% baseline, so its proportionality
// is at least 10%.
func (s *sequence) params(op engine.Op, gpus int) engine.Request {
	lo := 0
	if op == engine.OpCost {
		lo = 10
	}
	netprop := float64(lo+s.rng.IntN(101-lo)) / 100
	return engine.Request{
		Op:                     op,
		GPUs:                   gpus,
		Bandwidth:              bandwidths[s.rng.IntN(len(bandwidths))],
		CommRatio:              float64(5+s.rng.IntN(40)) / 100,
		NetworkProportionality: &netprop,
	}
}

// single builds a buffered GET for an analytical op.
func (s *sequence) single(op engine.Op, gpus int) request {
	return singleRequest(s.params(op, gpus))
}

// batch builds a POST /v1/batch of n distinct what-if rows.
func (s *sequence) batch(n int) request {
	reqs := make([]engine.Request, n)
	for i := range reqs {
		reqs[i] = s.params(engine.OpWhatIf, s.unique())
	}
	return batchRequest(reqs)
}

// singleRequest renders an analytical engine request as a GET with the
// query parameters cmd/serve parses.
func singleRequest(er engine.Request) request {
	q := url.Values{}
	q.Set("gpus", strconv.Itoa(er.GPUs))
	q.Set("bw", er.Bandwidth)
	q.Set("ratio", strconv.FormatFloat(er.CommRatio, 'g', -1, 64))
	if er.NetworkProportionality != nil {
		q.Set("netprop", strconv.FormatFloat(*er.NetworkProportionality, 'g', -1, 64))
	}
	return request{Kind: kindSingle, Target: "/v1/" + string(er.Op) + "?" + q.Encode(),
		Eng: []engine.Request{er}}
}

// streamRequest renders an analytical engine request as an NDJSON stream.
func streamRequest(er engine.Request) request {
	r := singleRequest(er)
	r.Kind = kindStream
	r.Target += "&stream=1"
	return r
}

// batchRequest renders engine requests as one POST /v1/batch.
func batchRequest(reqs []engine.Request) request {
	body, err := json.Marshal(map[string][]engine.Request{"requests": reqs})
	if err != nil {
		// Requests are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("marshal batch: %v", err))
	}
	return request{Kind: kindBatch, Target: "/v1/batch", Body: body, Eng: reqs}
}

// scenarioRequest renders a §4 scenario run with every parameter at its
// default except the seed.
func scenarioRequest(name string, seed int) request {
	return request{Kind: kindSingle,
		Target: "/v1/scenarios/" + name + "?seed=" + strconv.Itoa(seed),
		Eng: []engine.Request{{Op: engine.OpScenario, Scenario: name,
			Params: map[string]float64{"seed": float64(seed)}}}}
}

// fixedRequest builds an analytical request with fixed parameters, for
// the warm-up and census sets.
func fixedRequest(op engine.Op, gpus int, bw string) engine.Request {
	netprop := 0.5
	return engine.Request{Op: op, GPUs: gpus, Bandwidth: bw, CommRatio: 0.2,
		NetworkProportionality: &netprop}
}

// warmSet is what a freshly started server answers before it counts as
// warm: the hit pool (so pool requests are cache hits from the first
// measured request on), one request of each miss-workload kind, or one of
// each simulation scenario. None shares a cache key with a measured
// request.
func warmSet(name string, seq *sequence) []request {
	switch name {
	case "hit":
		return append([]request(nil), seq.pool...)
	case "miss":
		return []request{
			singleRequest(fixedRequest(engine.OpWhatIf, warmGPUs, "400G")),
			singleRequest(fixedRequest(engine.OpTable3, warmGPUs, "400G")),
			singleRequest(fixedRequest(engine.OpCost, warmGPUs, "400G")),
			streamRequest(fixedRequest(engine.OpSweep, warmGPUs, "400G")),
			batchRequest([]engine.Request{fixedRequest(engine.OpWhatIf, warmGPUs+1, "400G"),
				fixedRequest(engine.OpWhatIf, warmGPUs+2, "400G")}),
		}
	default:
		return []request{scenarioRequest("topologies", 1), scenarioRequest("faults", 1)}
	}
}

// censusSet exercises every layer the per-layer report names once, so a
// traced run reports every layer even when its workload leaves one idle.
// Its GPU counts and seeds are disjoint from warm-up and measured ones.
func censusSet() []request {
	var rows []engine.Request
	for i := 0; i < 4; i++ {
		rows = append(rows, fixedRequest(engine.OpWhatIf, censusGPUs+10+i, "200G"))
	}
	return []request{
		singleRequest(fixedRequest(engine.OpWhatIf, censusGPUs, "800G")),
		singleRequest(fixedRequest(engine.OpTable3, censusGPUs, "800G")),
		singleRequest(fixedRequest(engine.OpCost, censusGPUs, "800G")),
		singleRequest(fixedRequest(engine.OpSweep, censusGPUs, "800G")),
		streamRequest(fixedRequest(engine.OpSweep, censusGPUs+1, "800G")),
		batchRequest(rows),
		scenarioRequest("topologies", 2),
		scenarioRequest("faults", 2),
	}
}
