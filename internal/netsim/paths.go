package netsim

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"netpowerprop/internal/fattree"
)

// PathTable holds one topology's ECMP path sets and the switches each path
// visits, filled per host pair on first use. The enumeration depends only
// on the topology, never on seed, routing mode, capacity overrides or
// faults, so one table serves every Sim over that topology: New gives a
// Sim a private table on its first run, and a caller that runs many Sims
// over one topology (the engine's scenario memo) builds one table with
// NewPathTable and shares it through Sim.Paths.
//
// Each pair's entry is published through a dense host-ordinal index of
// atomic pointers. Once published an entry is immutable, so concurrent
// Sims read it without locks; two Sims that miss the same pair at once
// both enumerate it and the first to publish wins. Entries are stored
// exact-size, and every path and switch list is a capacity-limited
// sub-slice, so appending to one (for example to a FlowStat.Path) copies
// instead of writing into its neighbor.
type PathTable struct {
	top *fattree.Topology
	// ord maps a node ID to its host ordinal, -1 for switches.
	ord   []int32
	hosts int
	// pairs[ord[src]*hosts+ord[dst]] is the published pair entry.
	pairs []atomic.Pointer[pathSet]
	bytes atomic.Int64
}

// pathSet is one (src,dst) pair's ECMP choices.
type pathSet struct {
	paths    [][]int
	switches [][]int32 // switches visited by paths[i], in path order
	// links is the union of the paths' links, ascending, and mask records
	// which paths cross each: with w = ⌈len(paths)/64⌉ words per link,
	// path i crosses links[j] when bit i of mask[j*w:(j+1)*w] is set. A
	// fault epoch's alive filter walks links, not every path's hops.
	links []int32
	mask  []uint64
	// pair is the entry's index in its table's pairs; -1 for an entry the
	// table does not publish.
	pair int32
}

// Process-wide path-table lookup counters: a Run counts its lookups
// locally and adds them here once.
var pathHits, pathMisses atomic.Uint64

// PathTableCounts reports the process-wide path-table lookups since start:
// hits found a pair already published, misses had to enumerate it.
func PathTableCounts() (hits, misses uint64) {
	return pathHits.Load(), pathMisses.Load()
}

// NewPathTable returns an empty path table over a topology.
func NewPathTable(top *fattree.Topology) *PathTable {
	hosts := top.Hosts()
	t := &PathTable{top: top, ord: make([]int32, len(top.Nodes)), hosts: len(hosts)}
	for i := range t.ord {
		t.ord[i] = -1
	}
	for i, h := range hosts {
		t.ord[h] = int32(i)
	}
	t.pairs = make([]atomic.Pointer[pathSet], len(hosts)*len(hosts))
	t.bytes.Store(int64(4*len(t.ord) + 8*len(t.pairs)))
	return t
}

// Bytes reports the memory the table retains: its index plus every
// published entry.
func (t *PathTable) Bytes() int64 { return t.bytes.Load() }

// lookup returns a pair's path set, enumerating and publishing it on first
// use; hit reports whether it was already published. Pairs that are not
// two hosts are enumerated every time and never published, so their
// errors (and any custom enumerator's answer) pass through unchanged.
func (t *PathTable) lookup(src, dst int) (ps *pathSet, hit bool, err error) {
	slot := -1
	if src >= 0 && src < len(t.ord) && dst >= 0 && dst < len(t.ord) && src != dst {
		if a, b := t.ord[src], t.ord[dst]; a >= 0 && b >= 0 {
			slot = int(a)*t.hosts + int(b)
			if ps := t.pairs[slot].Load(); ps != nil {
				return ps, true, nil
			}
		}
	}
	paths, err := t.top.Paths(src, dst)
	if err != nil {
		return nil, false, err
	}
	ps, size := compactPaths(t.top, src, paths, int32(slot))
	if slot < 0 {
		return ps, false, nil
	}
	if !t.pairs[slot].CompareAndSwap(nil, ps) {
		return t.pairs[slot].Load(), false, nil
	}
	t.bytes.Add(size)
	return ps, false, nil
}

// compactPaths copies an enumeration into exact-size arenas: one holding
// every path's links, and one holding the pair's link union followed by
// every path's switches. It builds the union's path masks and reports the
// bytes retained. pair is the entry's index in its table (-1:
// unpublished).
func compactPaths(top *fattree.Topology, src int, paths [][]int, pair int32) (*pathSet, int64) {
	nl, ns := 0, 0
	for _, p := range paths {
		nl += len(p)
		at := src
		for _, lid := range p {
			at = top.Peer(lid, at)
			if top.Nodes[at].IsSwitch() {
				ns++
			}
		}
	}
	ps := &pathSet{paths: make([][]int, len(paths)), switches: make([][]int32, len(paths)), pair: pair}
	links := make([]int, 0, nl)
	for i, p := range paths {
		start := len(links)
		links = append(links, p...)
		ps.paths[i] = links[start:len(links):len(links)]
	}

	union := make([]int32, len(links))
	for i, l := range links {
		union[i] = int32(l)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	small := append(make([]int32, 0, len(union)+ns), union...)
	ps.links = small[:len(union):len(union)]
	for i, p := range paths {
		start := len(small)
		at := src
		for _, lid := range p {
			at = top.Peer(lid, at)
			if top.Nodes[at].IsSwitch() {
				small = append(small, int32(at))
			}
		}
		ps.switches[i] = small[start:len(small):len(small)]
	}

	w := (len(paths) + 63) / 64
	ps.mask = make([]uint64, w*len(ps.links))
	for i, p := range paths {
		for _, l := range p {
			j, _ := slices.BinarySearch(ps.links, int32(l))
			ps.mask[j*w+i/64] |= 1 << (i % 64)
		}
	}
	size := int64(unsafe.Sizeof(pathSet{})) +
		int64(len(paths))*int64(unsafe.Sizeof([]int(nil))+unsafe.Sizeof([]int32(nil))) +
		8*int64(nl) + 4*int64(len(ps.links)+ns) + 8*int64(len(ps.mask))
	return ps, size
}
