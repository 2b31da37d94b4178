package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"netpowerprop/internal/engine"
)

// checker answers requests in-process with the same engine code the
// server runs, so every response can be compared with what it should be.
type checker struct {
	eng *engine.Engine
}

func newChecker() *checker {
	// verify computes each distinct request once per call; the cache only
	// carries repeated requests (the hit pool) from one call to the next.
	return &checker{eng: engine.New(engine.Options{CacheSize: 1024})}
}

// expected is the in-process answer to one request.
type expected struct {
	digest uint64   // single and stream requests
	rows   [][]byte // batch requests: each row's result, compact JSON
	err    error
}

// streamFrame and streamEnd mirror cmd/serve's NDJSON frames.
type streamFrame struct {
	Row  int             `json:"row"`
	Data json.RawMessage `json:"data"`
}

type streamEnd struct {
	End  bool `json:"end"`
	Rows int  `json:"rows"`
}

// expect computes the answer the server must give to r.
func (c *checker) expect(ctx context.Context, r request) expected {
	results := make([]*engine.Result, len(r.Eng))
	for i, er := range r.Eng {
		res, _, err := c.eng.Do(ctx, er)
		if err != nil {
			return expected{err: fmt.Errorf("in-process %s: %w", r.Target, err)}
		}
		results[i] = res
	}
	switch r.Kind {
	case kindBatch:
		rows := make([][]byte, len(results))
		for i, res := range results {
			b, err := json.Marshal(res)
			if err != nil {
				return expected{err: err}
			}
			rows[i] = b
		}
		return expected{rows: rows}
	case kindStream:
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i, pt := range results[0].Sweep {
			data, err := json.Marshal(pt)
			if err != nil {
				return expected{err: err}
			}
			if err := enc.Encode(streamFrame{Row: i, Data: data}); err != nil {
				return expected{err: err}
			}
		}
		if err := enc.Encode(streamEnd{End: true, Rows: len(results[0].Sweep)}); err != nil {
			return expected{err: err}
		}
		d, err := answerDigest(kindStream, buf.Bytes())
		return expected{digest: d, err: err}
	default:
		body, err := encodeIndented(results[0])
		if err != nil {
			return expected{err: err}
		}
		d, err := answerDigest(kindSingle, body)
		return expected{digest: d, err: err}
	}
}

// encodeIndented renders a result the way cmd/serve's writeJSON nests it
// in an apiResponse, so the bytes after the result marker match.
func encodeIndented(res *engine.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Result *engine.Result `json:"result"`
	}{res})
	return buf.Bytes(), err
}

// batchBody is the part of a /v1/batch answer the check reads.
type batchBody struct {
	Items []struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"items"`
}

// matches reports whether a 200 answer equals the expectation.
func (e expected) matches(s sample) error {
	if e.err != nil {
		return e.err
	}
	if s.Req.Kind != kindBatch {
		if s.Digest != e.digest {
			return fmt.Errorf("%s: answer differs from the in-process engine", s.Req.Target)
		}
		return nil
	}
	var body batchBody
	if err := json.Unmarshal(s.Body, &body); err != nil {
		return fmt.Errorf("decode batch answer: %w", err)
	}
	if len(body.Items) != len(e.rows) {
		return fmt.Errorf("batch answered %d rows, want %d", len(body.Items), len(e.rows))
	}
	for i, it := range body.Items {
		if it.Error != "" {
			return fmt.Errorf("batch row %d failed: %s", i, it.Error)
		}
		if !bytes.Equal(it.Result, e.rows[i]) {
			return fmt.Errorf("batch row %d differs from the in-process engine", i)
		}
	}
	return nil
}

// verdict counts a run's outcomes.
type verdict struct {
	Attempted int
	// Failed counts requests that got no 200 answer; Wrong counts 200
	// answers that differ from the in-process engine.
	Failed, Wrong int
	// First is the first wrong answer and FirstFailed the first failed
	// request, for the report.
	First, FirstFailed error
}

// add accumulates another verdict into v.
func (v *verdict) add(o verdict) {
	v.Attempted += o.Attempted
	v.Failed += o.Failed
	v.Wrong += o.Wrong
	if v.First == nil {
		v.First = o.First
	}
	if v.FirstFailed == nil {
		v.FirstFailed = o.FirstFailed
	}
}

// ErrorRate is the share of attempts that failed or answered wrongly.
func (v verdict) ErrorRate() float64 {
	if v.Attempted == 0 {
		return 0
	}
	return float64(v.Failed+v.Wrong) / float64(v.Attempted)
}

// verify checks every sample against the in-process engine, computing
// each distinct request's expectation once, on all CPUs.
func (c *checker) verify(ctx context.Context, samples []sample) verdict {
	v := verdict{Attempted: len(samples)}
	distinct := map[string]request{}
	for _, s := range samples {
		if s.ok() {
			distinct[s.Req.wire()] = s.Req
		}
	}
	want := make(map[string]expected, len(distinct))
	var mu sync.Mutex
	work := make(chan request)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				e := c.expect(ctx, r)
				mu.Lock()
				want[r.wire()] = e
				mu.Unlock()
			}
		}()
	}
	for _, r := range distinct {
		work <- r
	}
	close(work)
	wg.Wait()
	for _, s := range samples {
		if !s.ok() {
			v.Failed++
			if v.FirstFailed == nil {
				v.FirstFailed = fmt.Errorf("%s: status %d: %v", s.Req.Target, s.Status, s.Err)
			}
			continue
		}
		if err := want[s.Req.wire()].matches(s); err != nil {
			v.Wrong++
			if v.First == nil {
				v.First = err
			}
		}
	}
	return v
}

// goldenTable3 is the checked-in Table 3 the repository's tests pin,
// relative to the repository root.
const goldenTable3 = "cmd/powerprop/testdata/table3.golden"

// checkAnchors asserts the paper's anchors on a running server: the
// default /v1/table3 grid equals the golden Table 3 (within its
// one-decimal rounding), and /v1/cost at 50% proportionality saves
// 380.5 kW worth $563,307 a year (§3.2).
func checkAnchors(ctx context.Context, c *client, root string) error {
	raw, err := os.ReadFile(root + "/" + goldenTable3)
	if err != nil {
		return fmt.Errorf("read golden Table 3: %w", err)
	}
	body, err := c.get(ctx, "/v1/table3")
	if err != nil {
		return err
	}
	var t3 struct {
		Result struct {
			Grid struct {
				Bandwidths []struct {
					Label string `json:"label"`
				} `json:"bandwidths"`
				Cells [][]struct {
					Savings float64 `json:"savings"`
				} `json:"cells"`
			} `json:"grid"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &t3); err != nil {
		return fmt.Errorf("decode /v1/table3: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 4 {
		return errors.New("golden Table 3 is truncated")
	}
	grid := t3.Result.Grid
	if len(grid.Cells) != len(lines)-3 || len(grid.Bandwidths) != len(grid.Cells) {
		return fmt.Errorf("Table 3 has %d rows, golden has %d", len(grid.Cells), len(lines)-3)
	}
	const tolerance = 0.00055 // the golden rounds to 0.1 percentage points
	for i, line := range lines[3:] {
		f := strings.Fields(line)
		if label := f[0] + " " + f[1]; grid.Bandwidths[i].Label != label {
			return fmt.Errorf("Table 3 row %d is %q, golden %q", i, grid.Bandwidths[i].Label, label)
		}
		if len(f)-2 != len(grid.Cells[i]) {
			return fmt.Errorf("Table 3 row %d has %d cells, golden %d", i, len(grid.Cells[i]), len(f)-2)
		}
		for j, cell := range f[2:] {
			pct, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				return fmt.Errorf("golden Table 3 cell %q: %w", cell, err)
			}
			if got := grid.Cells[i][j].Savings; math.Abs(got-pct/100) > tolerance {
				return fmt.Errorf("Table 3 cell (%d,%d) saves %v, golden %v%%", i, j, got, pct)
			}
		}
	}

	body, err = c.get(ctx, "/v1/cost?prop=0.5")
	if err != nil {
		return err
	}
	var cost struct {
		Result struct {
			Cost struct {
				SavedPower struct {
					Label string `json:"label"`
				} `json:"saved_power"`
				TotalPerYear float64 `json:"total_per_year"`
			} `json:"cost"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &cost); err != nil {
		return fmt.Errorf("decode /v1/cost: %w", err)
	}
	if got := cost.Result.Cost.SavedPower.Label; got != "380.5 kW" {
		return fmt.Errorf("§3.2 saved power is %q, want 380.5 kW", got)
	}
	if got := math.Round(cost.Result.Cost.TotalPerYear); got != 563307 {
		return fmt.Errorf("§3.2 total savings are $%.0f/year, want $563,307", got)
	}
	return nil
}
