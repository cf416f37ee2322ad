package serve

import (
	"strconv"
	"sync"

	"ebda/internal/topology"
)

// networkCache interns *topology.Network values by (kind, sizes), so
// repeat requests for a shape skip topology construction. The engine's
// workspace pool serves every shape; interning only lets it find an idle
// workspace still bound to the same network pointer and skip the refill.
//
// The map is bounded like the verify cache: past maxNetworks it is
// flushed wholesale. Correctness never depends on interning — a flush
// only costs a rebuild.
type networkCache struct {
	mu sync.Mutex
	m  map[string]*topology.Network
}

// maxNetworks bounds the interning map. The admissible shape space is
// not small: the bench verify_cold stream alone names 49²·2 + 9³ = 5,531
// (kind, sizes) shapes, so a stream of new shapes flushes the map
// wholesale once every maxNetworks of them, each flush costing only
// rebuilds. A repeated set of fewer shapes stays interned.
const maxNetworks = 256

func newNetworkCache() *networkCache {
	return &networkCache{m: make(map[string]*topology.Network)}
}

// get returns the canonical network for a validated (kind, sizes) pair,
// constructing it on first use. kind must be "mesh" or "torus" (the spec
// validator guarantees it).
func (nc *networkCache) get(kind string, sizes []int) *topology.Network {
	key := netKey(kind, sizes)
	nc.mu.Lock()
	if net, ok := nc.m[key]; ok {
		nc.mu.Unlock()
		return net
	}
	nc.mu.Unlock()
	// Build outside the lock: construction is pure and a duplicate build
	// on a race is harmless — the store below re-checks.
	var net *topology.Network
	if kind == "torus" {
		net = topology.NewTorus(sizes...)
	} else {
		net = topology.NewMesh(sizes...)
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if cur, ok := nc.m[key]; ok {
		return cur
	}
	if len(nc.m) >= maxNetworks {
		nc.m = make(map[string]*topology.Network)
	}
	nc.m[key] = net
	return net
}

// netKey renders the interning key, e.g. "mesh:8x8".
func netKey(kind string, sizes []int) string {
	b := make([]byte, 0, len(kind)+1+len(sizes)*3)
	b = append(b, kind...)
	b = append(b, ':')
	for i, s := range sizes {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return string(b)
}
