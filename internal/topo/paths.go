package topo

import (
	"fmt"
	"sort"
	"sync"

	"netpowerprop/internal/fattree"
)

// maxPaths caps the ECMP path set per host pair: enough diversity for the
// fairness solver and fault rerouting without quadratic blowups on dense
// graphs. Enumeration order is by link ID at every branch, so the first
// maxPaths paths are the same on every run.
const maxPaths = 32

// InstallPaths equips a topology with a deterministic breadth-first path
// enumerator: all simple paths between two hosts no longer than the
// shortest path plus `slack` links, capped at maxPaths, explored in link-ID
// order. slack 0 yields exactly the shortest-path ECMP set; torus- and
// dragonfly-style topologies pass slack 2 so one-detour routes join the
// set and fault-epoch rerouting has somewhere to steer.
func InstallPaths(t *fattree.Topology, slack int) {
	t.SetPathFn(func(src, dst int) ([][]int, error) {
		return enumerate(t, src, dst, slack)
	})
}

// scratch holds the per-enumeration working buffers — the BFS distance
// field and queue, the DFS on-path marker, and the current-path stack.
// They are reused across host pairs through scratchPool: path enumeration
// runs for every ordered pair of a topology (and concurrently from
// simulations sharing one path table), so per-call allocation of these O(nodes) slices
// dominated the profile. Only the returned paths (and their shared arena)
// are allocated per call, because they escape to the caller.
type scratch struct {
	dist   []int
	queue  []int
	onPath []bool
	cur    []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset sizes the buffers for an n-node graph and restores their
// invariants: dist all -1, onPath all false, queue and cur empty.
func (s *scratch) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]int, n)
		s.onPath = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.onPath = s.onPath[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
	for i := range s.onPath {
		s.onPath[i] = false
	}
	s.queue = s.queue[:0]
	s.cur = s.cur[:0]
}

// enumerate runs the bounded DFS over the distance field from dst.
func enumerate(t *fattree.Topology, src, dst, slack int) ([][]int, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.reset(len(t.Nodes))

	// BFS from dst: dist[v] = hops to dst, -1 unreachable. Host nodes are
	// degree-1 leaves, so distances through other hosts never shortcut.
	dist := s.dist
	dist[dst] = 0
	queue := append(s.queue, dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, lid := range t.LinksOf(v) {
			p := t.Peer(lid, v)
			if dist[p] < 0 {
				dist[p] = dist[v] + 1
				queue = append(queue, p)
			}
		}
	}
	s.queue = queue[:0] // keep the grown buffer for the next pair
	if dist[src] < 0 {
		return nil, fmt.Errorf("topo: no path between hosts %d and %d", src, dst)
	}
	budget := dist[src] + slack

	// DFS from src in link-ID order, pruned by the distance field: a step
	// onto p is viable only if the spent length plus p's remaining
	// distance fits the budget. onPath keeps paths simple. Every returned
	// path is a sub-slice of one shared arena, so the whole result set
	// costs two allocations instead of one per path.
	paths := make([][]int, 0, maxPaths)
	arena := make([]int, 0, maxPaths*budget)
	onPath := s.onPath
	onPath[src] = true
	cur := s.cur
	var dfs func(v, spent int)
	dfs = func(v, spent int) {
		if len(paths) >= maxPaths {
			return
		}
		for _, lid := range t.LinksOf(v) {
			p := t.Peer(lid, v)
			if onPath[p] || dist[p] < 0 || spent+1+dist[p] > budget {
				continue
			}
			// Other hosts are dead ends; only dst terminates a path.
			if t.Nodes[p].Kind == fattree.KindHost && p != dst {
				continue
			}
			cur = append(cur, lid)
			if p == dst {
				start := len(arena)
				arena = append(arena, cur...)
				paths = append(paths, arena[start:len(arena):len(arena)])
			} else {
				onPath[p] = true
				dfs(p, spent+1)
				onPath[p] = false
			}
			cur = cur[:len(cur)-1]
			if len(paths) >= maxPaths {
				return
			}
		}
	}
	dfs(src, 0)
	onPath[src] = false
	s.cur = cur[:0]
	if len(paths) == 0 {
		return nil, fmt.Errorf("topo: no path between hosts %d and %d", src, dst)
	}
	// Shortest first (stable on discovery order), so ECMP hashing favors
	// minimal routes and detours serve as fault spares.
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i]) < len(paths[j]) })
	return paths, nil
}
