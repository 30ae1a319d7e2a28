// Package convcache is the cross-handle conversion cache: the paper's
// T_convert, paid once per structure instead of once per handle. When any
// handle's stage-2 pipeline converts a matrix, the result is published here
// keyed by (structure fingerprint, value digest, format); a later handle
// over the same matrix adopts the converted operator with zero residual
// conversion cost, and — because the selector consults the cache before
// costing candidates — a cache hit changes the decision itself: a format
// whose T_convert would not amortize becomes free and can win the argmin.
//
// Entries are shared immutable matrices. Eviction only drops the cache's
// own reference: a handle that already adopted an entry keeps its matrix
// alive through the garbage collector, so an eviction can never invalidate
// a live operator.
package convcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// Key identifies one cached conversion result. The structure fingerprint
// alone is not sound: it excludes numeric values by design (see
// sparse.CSR.Fingerprint), and a converted matrix carries values. Two
// tenants share an entry only when structure AND values match.
type Key struct {
	Fingerprint string
	Values      string
	Format      sparse.Format
}

// Entry is one published conversion: the converted operator plus what the
// publisher paid to build it (so adopters can credit that cost as hidden
// overhead in their ledgers) and its nonzero count (the eviction budget
// currency, matching the registry's nnz-denominated capacity).
type Entry struct {
	M              sparse.Matrix
	ConvertSeconds float64
	NNZ            int
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64
	Misses    int64
	Publishes int64
	Evictions int64
	Entries   int
	NNZ       int64
}

// Cache is an nnz-bounded LRU of published conversions, safe for
// concurrent use by every handle's selector.
type Cache struct {
	hits      atomic.Int64
	misses    atomic.Int64
	publishes atomic.Int64
	evictions atomic.Int64

	mu      sync.Mutex
	maxNNZ  int64
	curNNZ  int64
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used; values are *node
}

type node struct {
	key   Key
	entry Entry
}

// New returns a cache that holds at most maxNNZ total stored nonzeros
// (<= 0 means unbounded). One matrix's conversions count once per format,
// the same way the registry charges per handle.
func New(maxNNZ int64) *Cache {
	return &Cache{
		maxNNZ:  maxNNZ,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
	}
}

// Lookup returns the cached conversion for k, counting a hit or miss and
// refreshing the entry's LRU position on hit.
func (c *Cache) Lookup(k Key) (Entry, bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	if ok {
		c.lru.MoveToFront(el)
	}
	var e Entry
	if ok {
		e = el.Value.(*node).entry
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return e, true
	}
	c.misses.Add(1)
	return Entry{}, false
}

// Has reports whether k is cached without touching the hit/miss counters or
// the LRU order. The selector probes candidate formats with it while
// costing the decision; only the adoption itself counts as a hit.
func (c *Cache) Has(k Key) bool {
	c.mu.Lock()
	_, ok := c.entries[k]
	c.mu.Unlock()
	return ok
}

// Publish inserts a finished conversion. The first publisher wins: a
// concurrent duplicate publish (two tenants converting the same structure
// before either finishes) keeps the existing entry and drops the newcomer,
// so adopters all alias one matrix. Entries larger than the whole budget
// are refused rather than cycling the cache.
func (c *Cache) Publish(k Key, e Entry) {
	if e.M == nil || e.NNZ < 0 {
		return
	}
	if c.maxNNZ > 0 && int64(e.NNZ) > c.maxNNZ {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[k] = c.lru.PushFront(&node{key: k, entry: e})
	c.curNNZ += int64(e.NNZ)
	evicted := 0
	for c.maxNNZ > 0 && c.curNNZ > c.maxNNZ {
		back := c.lru.Back()
		if back == nil {
			break
		}
		n := back.Value.(*node)
		c.lru.Remove(back)
		delete(c.entries, n.key)
		c.curNNZ -= int64(n.entry.NNZ)
		evicted++
	}
	c.mu.Unlock()
	c.publishes.Add(1)
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// Snapshot returns the current counters and occupancy.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	entries := len(c.entries)
	nnz := c.curNNZ
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Publishes: c.publishes.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		NNZ:       nnz,
	}
}
