package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/units"
)

// append adds a span to a trace, merging with the previous segment when
// the rate is unchanged: the merge rule Run's traces follow, kept as the
// oracle for runState.record.
func (t Trace) append(start, end units.Seconds, rate units.Bandwidth) Trace {
	if end <= start {
		return t
	}
	if n := len(t); n > 0 && t[n-1].End == start && t[n-1].Rate == rate {
		t[n-1].End = end
		return t
	}
	return append(t, Segment{Start: start, End: end, Rate: rate})
}

// TestRecordMatchesAppend: logging random rate sequences by column with
// record and close yields, column by column, the traces that appending
// every interval would build, including runs of equal rates.
func TestRecordMatchesAppend(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rs := new(runState)
	for trial := 0; trial < 200; trial++ {
		cols, intervals := 1+r.Intn(6), 1+r.Intn(12)
		times := []units.Seconds{units.Seconds(r.Intn(3) - 1)}
		for i := 0; i < intervals; i++ {
			times = append(times, times[i]+units.Seconds(1+r.Intn(4))/4)
		}
		rates := []float64{0, 0, 5, 7.5}
		want := make([]Trace, cols)
		rs.open = resize(rs.open, cols)
		rs.segs = rs.segs[:0]
		for i := 0; i < intervals; i++ {
			for c := 0; c < cols; c++ {
				rate := rates[r.Intn(len(rates))]
				rs.record(c, times[i], rate, i == 0)
				want[c] = want[c].append(times[i], times[i+1], units.Bandwidth(rate))
			}
		}
		for c := 0; c < cols; c++ {
			rs.close(c, times[intervals])
		}
		got := make([]Trace, cols)
		for _, cs := range rs.segs {
			got[cs.col] = append(got[cs.col], cs.seg)
		}
		for c := range want {
			if !slices.Equal(got[c], want[c]) {
				t.Fatalf("trial %d column %d: record logged %v, append built %v", trial, c, got[c], want[c])
			}
		}
	}
}

// aliveReference is the per-path dead-link scan the mask filter replaced:
// the indices of ps.paths that cross no dead link, ascending. It is the
// oracle for runState.aliveFor.
func aliveReference(ps *pathSet, dead []bool) []int {
	var idx []int
	for i, p := range ps.paths {
		ok := true
		for _, l := range p {
			if dead[l] {
				ok = false
				break
			}
		}
		if ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// concentrateReference is the exhaustive ConcentrateRouting scan the
// pruned one replaced: every candidate's new switches are counted in
// full, and the first candidate with the fewest wins. It is the oracle
// for concentratePick.
func concentrateReference(ps *pathSet, alive []int, used []bool) int {
	n := len(ps.paths)
	pick := func(k int) int { return k }
	if alive != nil {
		n = len(alive)
		pick = func(k int) int { return alive[k] }
	}
	best, bestNew := pick(0), len(used)+1
	for k := 0; k < n; k++ {
		i := pick(k)
		newSwitches := 0
		for _, sw := range ps.switches[i] {
			if !used[sw] {
				newSwitches++
			}
		}
		if newSwitches < bestNew {
			best, bestNew = i, newSwitches
		}
	}
	return best
}

// namedTable is a path table with a label for failure messages.
type namedTable struct {
	name  string
	table *PathTable
}

// zooTables returns, for every zoo topology at 16 and 24 hosts and a k=4
// and k=8 fat tree, a path table with every host pair filled, and a k=18
// fat tree's table with a few cross-pod pairs (81 paths each, so their
// masks take two words per link).
func zooTables(t *testing.T) []namedTable {
	t.Helper()
	var tables []namedTable
	fill := func(name string, top *fattree.Topology, pairs [][2]int) {
		pt := NewPathTable(top)
		for _, p := range pairs {
			if _, _, err := pt.lookup(p[0], p[1]); err != nil {
				t.Fatalf("%s: lookup(%d, %d): %v", name, p[0], p[1], err)
			}
		}
		tables = append(tables, namedTable{name, pt})
	}
	allPairs := func(top *fattree.Topology) [][2]int {
		var pairs [][2]int
		for _, a := range top.Hosts() {
			for _, b := range top.Hosts() {
				if a != b {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		return pairs
	}
	for _, hosts := range []int{16, 24} {
		for _, name := range topo.Names() {
			top, _, err := topo.Build(name, topo.Spec{Hosts: hosts, LinkSpeed: 100 * units.Gbps})
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", name, hosts, err)
			}
			fill(fmt.Sprintf("%s/%d", name, hosts), top, allPairs(top))
		}
	}
	for _, k := range []int{4, 8} {
		top, err := fattree.BuildThreeTier(k, 100*units.Gbps)
		if err != nil {
			t.Fatal(err)
		}
		fill(fmt.Sprintf("fattree-k%d", k), top, allPairs(top))
	}
	big, err := fattree.BuildThreeTier(18, 100*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	h := big.Hosts()
	var pairs [][2]int
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]int{h[i], h[len(h)-1-i]})
	}
	fill("fattree-k18", big, pairs)
	return tables
}

// TestAliveFilterMatchesPerPathScan: over every pair set of the zoo and
// two fat trees, with random dead-link sets of every density, the mask
// filter returns exactly the per-path scan's surviving indices.
func TestAliveFilterMatchesPerPathScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rs := new(runState)
	wide := false
	for _, nt := range zooTables(t) {
		name, pt := nt.name, nt.table
		dead := make([]bool, len(pt.top.Links))
		for slot := range pt.pairs {
			ps := pt.pairs[slot].Load()
			if ps == nil {
				continue
			}
			rs.alive = append(rs.alive[:0], aliveFilter{epoch: -1})
			wide = wide || len(ps.paths) > 64
			for trial := 0; trial < 8; trial++ {
				// Kill each of the pair's links with a trial-dependent
				// probability, plus a few links anywhere in the topology.
				clear(dead)
				p := float64(trial) / 8
				for _, l := range ps.links {
					if r.Float64() < p {
						dead[l] = true
					}
				}
				for k := 0; k < trial; k++ {
					dead[r.Intn(len(dead))] = true
				}
				got := rs.aliveFor(0, ps, trial, dead)
				want := aliveReference(ps, dead)
				if !slices.Equal(got, want) {
					t.Fatalf("%s pair %d trial %d: mask filter %v, per-path scan %v", name, slot, trial, got, want)
				}
			}
		}
	}
	if !wide {
		t.Error("no pair had more than 64 paths: multi-word masks went untested")
	}
}

// TestConcentratePickMatchesExhaustiveScan: over every pair set of the
// zoo and two fat trees, with random used-switch sets and random
// surviving-path subsets, the pruned scan picks the exhaustive scan's
// path.
func TestConcentratePickMatchesExhaustiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, nt := range zooTables(t) {
		name, pt := nt.name, nt.table
		used := make([]bool, len(pt.top.Nodes))
		for slot := range pt.pairs {
			ps := pt.pairs[slot].Load()
			if ps == nil {
				continue
			}
			for trial := 0; trial < 8; trial++ {
				clear(used)
				p := float64(trial) / 8
				for _, sws := range ps.switches {
					for _, sw := range sws {
						if r.Float64() < p {
							used[sw] = true
						}
					}
				}
				var alive []int // nil on even trials: every path survives
				if trial%2 == 1 {
					for i := range ps.paths {
						if r.Intn(3) > 0 {
							alive = append(alive, i)
						}
					}
					if len(alive) == 0 {
						alive = append(alive, r.Intn(len(ps.paths)))
					}
				}
				if got, want := concentratePick(ps, alive, used), concentrateReference(ps, alive, used); got != want {
					t.Fatalf("%s pair %d trial %d: pruned scan picked %d, exhaustive scan %d", name, slot, trial, got, want)
				}
			}
		}
	}
}
