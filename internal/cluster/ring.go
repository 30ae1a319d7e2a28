// Package cluster implements the sharded serving tier in front of ocsd: a
// consistent-hash router that spreads matrix handles across N shard
// processes over the existing HTTP/JSON API, replicates hot read-only
// handles so fan-out SpMV traffic load-balances across copies, and
// row-partitions matrices too large for one shard (distributed SpMV as
// per-shard partial products gathered at the router).
//
// The split is "registry node" vs "routing node": shards are stock ocsd
// processes — they own matrices, selectors, and the paid/hidden overhead
// ledger for the handles they host — while the router owns placement (the
// hash ring), health, replication, and the gather math. Nothing on a shard
// knows it is part of a cluster; the router speaks the same /v1 JSON a
// client would.
package cluster

import (
	"fmt"
	"sort"
)

// fnv64a hashes a string with FNV-1a plus a 64-bit avalanche finalizer;
// deterministic across processes, which is all consistent hashing needs (no
// adversarial inputs on a ring key). The finalizer matters: raw FNV-1a of
// short sequential keys ("g1", "g2", ...) barely mixes the high bits, which
// clusters ring positions and skews the ownership split badly.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring with virtual nodes. Each member contributes
// vnodes points; a key is owned by the first point clockwise from its hash.
// Virtual nodes smooth the load split (with ~64 points per shard the
// max/mean key imbalance stays within a few tens of percent) and membership
// changes move only the keys adjacent to the added/removed points — the
// property that makes shard drain cheap.
//
// Ring is not goroutine-safe; the Router serializes access under its lock.
type Ring struct {
	vnodes  int
	points  []ringPoint
	members map[string]bool
}

// NewRing creates an empty ring with the given virtual-node count per
// member (values < 1 become the default 64).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op.
func (r *Ring) Add(name string) {
	if r.members[name] {
		return
	}
	r.members[name] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{fnv64a(fmt.Sprintf("%s#%d", name, v)), name})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual nodes. Removing an absent member is a
// no-op.
func (r *Ring) Remove(name string) {
	if !r.members[name] {
		return
	}
	delete(r.members, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the member owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// Successors returns up to n distinct members in ring order starting at the
// key's owner: the placement sequence for a key's primary and its replica
// or partition candidates. Fewer than n members yields all of them.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := fnv64a(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
