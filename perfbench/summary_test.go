package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestDescribeReportsCountAndSupportedTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // reverse order: describe must sort
	}
	d := describe(v)
	if d.N != 1000 || d.P50 != 500 || d.TailP != 99 || d.TailAt != 990 {
		t.Fatalf("describe = %+v, want n=1000 p50=500 p99=990", d)
	}
	if s := d.String(); !strings.Contains(s, "p99 990") || !strings.Contains(s, "n=1000") {
		t.Errorf("String() = %q", s)
	}
	if s := describe([]float64{3, 1, 2}).String(); !strings.Contains(s, "too few samples") {
		t.Errorf("a 3-sample description should say it has no tail: %q", s)
	}
}

// The expected quartiles are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0, 2.0}, 1.4375, 2.75, 7.625},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 11, 13}, 3, 6, 9},
	} {
		q1, med, q3, err := quartiles(c.data)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestSpreadIsQuartileDistanceOverMedian(t *testing.T) {
	got, err := spreadOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSummarizeRuns(t *testing.T) {
	in := strings.Join([]string{
		"build noise",
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":1,"unit":"ms"}}}`,
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":2,"unit":"ms"}}}`,
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":3,"unit":"ms"}}}`,
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":4,"unit":"ms"}}}`,
	}, "\n")
	var out strings.Builder
	if err := summarizeRuns(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	// quantiles([1,2,3,4]) = [1.25, 2.5, 3.75]; spread = 2.5/2.5 = 100%.
	for _, want := range []string{"4 runs", "p50_ms", "1.25", "2.5", "3.75", "100.00%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	if err := summarizeRuns(strings.NewReader("nothing"), &out); err == nil {
		t.Error("summarizing no result lines should fail")
	}
}
