package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values: the smallest value with at least p% of the sample at or
// below it. It returns NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a timing report may quote as its tail.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as the tail.
const minBeyond = 10

// supportedTail returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median is not
// supported.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// tail describes a latency sample: its median, the highest percentile the
// sample supports, and the sample count.
type tail struct {
	N      int
	P50    float64
	TailP  float64 // 0 when the sample supports no percentile
	TailAt float64
}

// describe summarizes values (any order) the way the report quotes them.
func describe(values []float64) tail {
	s := sortedCopy(values)
	t := tail{N: len(s), P50: percentile(s, 50), TailP: supportedTail(len(s))}
	if t.TailP > 0 {
		t.TailAt = percentile(s, t.TailP)
	}
	return t
}

func (t tail) String() string {
	if t.TailP == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail)", t.P50, t.N)
	}
	return fmt.Sprintf("p50 %.4g, p%g %.4g (n=%d)", t.P50, t.TailP, t.TailAt, t.N)
}

// sortedCopy returns values sorted ascending, leaving the input alone.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does; NaN when empty.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so a spread computed here matches one computed
// there. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64, err error) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", ld)
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], median(s), q[2], nil
}

// spreadOf is the distance between the quartiles as a share of the
// median: the run-to-run noise figure a metric's bound must exceed.
func spreadOf(values []float64) (float64, error) {
	q1, med, q3, err := quartiles(values)
	if err != nil {
		return 0, err
	}
	if med == 0 {
		return 0, nil
	}
	return (q3 - q1) / math.Abs(med), nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarizeRuns reads the output of repeated runs (the result line of
// each; other lines are skipped) and writes, for every metric, its median
// and quartiles across runs and their spread as a share of the median.
func summarizeRuns(r io.Reader, w io.Writer) error {
	values := map[string][]float64{}
	units := map[string]string{}
	runs := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("need at least 2 result lines, found %d", runs)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n%-28s %-8s %14s %14s %14s %8s\n", runs, "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3, err := quartiles(values[name])
		if err != nil {
			fmt.Fprintf(w, "%-28s %-8s %v\n", name, units[name], err)
			continue
		}
		sp, _ := spreadOf(values[name])
		fmt.Fprintf(w, "%-28s %-8s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], q1, med, q3, 100*sp)
	}
	return nil
}
