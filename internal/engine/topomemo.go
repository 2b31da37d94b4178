package engine

import (
	"sync"
	"unsafe"

	"netpowerprop/internal/fattree"
	"netpowerprop/internal/netsim"
	"netpowerprop/internal/topo"
	"netpowerprop/internal/units"
)

// topoMemoBudget bounds the bytes the topology memo retains: built
// topologies plus their filled path tables. A topologies request at the
// default 24 hosts fills about 5.5 MB over the whole zoo and a k=4 faults
// request about 130 kB, so the budget keeps the default working set with
// room for a few other sizes; a zoo at 64 hosts alone outgrows it and is
// rebuilt per request, as before the memo.
const topoMemoBudget = 16 << 20

// topoKey names one memoized topology: a zoo generator at a host count
// and link speed (topologies), or the three-tier fat tree at a radix
// (faults, gen and hosts zero).
type topoKey struct {
	gen   string
	hosts int
	radix int
	speed units.Bandwidth
}

// topoEntry is one built topology with its design and shared path table.
// The topology and design are read-only once built and the table is safe
// for concurrent Sims, so concurrent scenario rows share an entry.
type topoEntry struct {
	top    *fattree.Topology
	design topo.Design
	paths  *netsim.PathTable
	// base estimates the topology's own bytes; the table reports its own.
	base int64
	used uint64 // LRU stamp
}

func (e *topoEntry) bytes() int64 { return e.base + e.paths.Bytes() }

// topoMemo is the process-wide, byte-bounded LRU of built topologies.
// The scenario seed changes only the fault trace, never the topology, so
// repeated requests route over one table instead of enumerating every
// host pair's paths again. Path tables grow as runs fill them, so the
// budget is enforced when an entry is added and after each use (trim);
// an evicted entry stays valid for whoever still holds it.
type topoMemo struct {
	mu      sync.Mutex
	budget  int64
	tick    uint64
	entries map[topoKey]*topoEntry
}

var memo = &topoMemo{budget: topoMemoBudget, entries: map[topoKey]*topoEntry{}}

// get returns the memoized entry for key, building it on a miss. Two
// concurrent misses may both build; the first to insert wins, and build
// errors are not memoized.
func (m *topoMemo) get(key topoKey, build func() (*fattree.Topology, topo.Design, error)) (*topoEntry, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.touch(e)
		m.mu.Unlock()
		return e, nil
	}
	m.mu.Unlock()
	top, design, err := build()
	if err != nil {
		return nil, err
	}
	e := &topoEntry{top: top, design: design, paths: netsim.NewPathTable(top), base: topologyBytes(top)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		m.touch(old)
		return old, nil
	}
	m.touch(e)
	m.entries[key] = e
	m.trimLocked()
	return e, nil
}

func (m *topoMemo) touch(e *topoEntry) {
	m.tick++
	e.used = m.tick
}

// trim evicts least recently used entries until the memo fits its budget.
func (m *topoMemo) trim() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trimLocked()
}

func (m *topoMemo) trimLocked() {
	total := m.retainedLocked()
	for total > m.budget {
		var lru *topoEntry
		var lruKey topoKey
		for k, e := range m.entries {
			if lru == nil || e.used < lru.used {
				lru, lruKey = e, k
			}
		}
		total -= lru.bytes()
		delete(m.entries, lruKey)
	}
}

func (m *topoMemo) retainedLocked() int64 {
	var total int64
	for _, e := range m.entries {
		total += e.bytes()
	}
	return total
}

// topologyBytes estimates a built topology's footprint: its node and link
// arrays, plus the adjacency and link-lookup maps at about twice their
// key and value bytes.
func topologyBytes(t *fattree.Topology) int64 {
	const word = 8
	nodes := int64(len(t.Nodes))
	links := int64(len(t.Links))
	return nodes*(int64(unsafe.Sizeof(fattree.Node{}))+word+2*(word+3*word)) +
		links*(int64(unsafe.Sizeof(fattree.Link{}))+2*word+2*(3*word))
}
