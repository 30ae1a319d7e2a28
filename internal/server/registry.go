package server

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Handle is one registered matrix: the CSR master copy, the adaptive wrapper
// running the two-stage selector for it (safe for concurrent use), and usage
// bookkeeping. Handles live in the Registry and are shared by every request
// that names their ID; the adaptive state therefore accumulates progress
// across requests, which is exactly how conversion cost amortizes in the
// paper's T_affected model.
type Handle struct {
	ID      string
	Name    string
	Rows    int
	Cols    int
	NNZ     int
	Tol     float64
	Created time.Time
	// Fingerprint hashes the matrix structure (sparse.CSR.Fingerprint),
	// computed once at registration.
	Fingerprint string
	// ValueDigest hashes the numeric values (sparse.CSR.ValueDigest);
	// together with Fingerprint it identifies the matrix exactly, and the
	// pair keys both registry dedup and the conversion cache.
	ValueDigest string
	// AliasOf is the ID of the previously registered handle whose CSR
	// storage this handle shares (registration detected an identical
	// matrix); empty for an original. Registry.Add sets it from the group the
	// handle joins. Aliases charge nothing against the registry's nnz budget.
	AliasOf string

	// SA is the selector state; safe for concurrent use.
	SA *core.Adaptive

	// csr is the master copy (also referenced inside SA); kept for
	// diagonal extraction and other whole-matrix reads.
	csr *sparse.CSR

	// Dangling is non-nil when the matrix was registered as a PageRank
	// transition operator; it flags the zero-out-degree nodes.
	Dangling []bool

	mu         sync.Mutex
	diag       []float64 // lazily extracted
	spmvCalls  int64
	solveCalls int64
	stage2Seen bool // whether the selector pipeline outcome was counted
}

// CSR returns the master CSR copy. The matrix is immutable after
// registration; callers must not mutate the arrays. The export endpoint
// serializes it for peer shards.
func (h *Handle) CSR() *sparse.CSR { return h.csr }

// Diag returns the matrix diagonal, extracting and caching it on first use
// (PCG's Jacobi preconditioner and the Jacobi solver need it).
func (h *Handle) Diag() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.diag == nil {
		h.diag = h.csr.Diag()
	}
	return h.diag
}

// countUse records request-level usage and, once per handle, folds the
// selector's pipeline outcome into the server metrics. A decision trace
// exists exactly when that outcome is final (stopped at a gate, decided,
// installed or canceled), and asking for it is one atomic load, so a request
// waits for the handle only the one time there is something to read.
func (h *Handle) countUse(m *Metrics, spmvs, solves int64) {
	_, settled := h.SA.TraceID()
	h.mu.Lock()
	h.spmvCalls += spmvs
	h.solveCalls += solves
	fold := settled && !h.stage2Seen
	if fold {
		h.stage2Seen = true
	}
	h.mu.Unlock()
	if !fold {
		return
	}
	st := h.SA.Stats()
	if !st.Stage2Ran {
		return
	}
	if st.Converted {
		m.Conversions.Add(1)
	} else {
		m.ConversionsAvoided.Add(1)
	}
	// The selector's measured stage-2 overheads. ConvertSeconds is only
	// meaningful when a conversion actually ran.
	m.FeatureSeconds.Observe(st.FeatureSeconds)
	m.PredictSeconds.Observe(st.PredictSeconds)
	if st.Converted {
		m.ConvertSeconds.Observe(st.ConvertSeconds)
	}
}

// Usage returns the handle's cumulative request counters.
func (h *Handle) Usage() (spmvCalls, solveCalls int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spmvCalls, h.solveCalls
}

// dedupKey is the identity handles are deduplicated on: structure AND
// values. Empty when either hash is missing (handles built outside the
// register path), which opts the handle out of dedup entirely.
func (h *Handle) dedupKey() string {
	if h.Fingerprint == "" || h.ValueDigest == "" {
		return ""
	}
	return h.Fingerprint + "|" + h.ValueDigest
}

// dedupGroup tracks the handles sharing one backing matrix. Exactly one
// member — chargedID — is billed for the group's nnz/bytes; deleting it
// transfers the charge to a survivor (the storage is still resident), and
// only the last member's departure releases capacity.
type dedupGroup struct {
	members   map[string]*Handle
	chargedID string
	nnz       int64
	bytes     int64
}

// Registry owns the registered matrices. Capacity is bounded by total nnz
// across all handles (nnz is proportional to resident bytes for CSR); when
// an insert would exceed the bound, least-recently-used handles are evicted
// until it fits. Every lookup refreshes recency. Handles whose structure and
// values match an already registered matrix are deduplicated: they share the
// resident CSR arrays and charge nothing further against the budget.
type Registry struct {
	mu      sync.Mutex
	maxNNZ  int64
	curNNZ  int64
	entries map[string]*regEntry
	groups  map[string]*dedupGroup // dedupKey -> group, only keyed handles
	lru     *list.List             // front = most recently used; values are *Handle
	nextID  int64
	metrics *Metrics
}

type regEntry struct {
	h    *Handle
	elem *list.Element
}

// NewRegistry creates a registry bounded at maxNNZ total stored nonzeros.
func NewRegistry(maxNNZ int64, m *Metrics) *Registry {
	if m == nil {
		m = &Metrics{}
	}
	return &Registry{
		maxNNZ:  maxNNZ,
		entries: make(map[string]*regEntry),
		groups:  make(map[string]*dedupGroup),
		lru:     list.New(),
		metrics: m,
	}
}

// FindDuplicate returns a resident handle with the given structure
// fingerprint and value digest, preferring the member currently charged for
// the group (its CSR is the canonical shared copy). The register path calls
// it before building a wrapper so a duplicate upload aliases the resident
// arrays instead of keeping a second copy alive.
func (r *Registry) FindDuplicate(fp, vd string) (*Handle, bool) {
	if fp == "" || vd == "" {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.groups[fp+"|"+vd]
	if g == nil || len(g.members) == 0 {
		return nil, false
	}
	if h := g.members[g.chargedID]; h != nil {
		return h, true
	}
	for _, h := range g.members {
		return h, true
	}
	return nil, false
}

// Add registers a handle, assigning it a fresh ID, evicting LRU handles as
// needed. It fails if the matrix alone exceeds the registry bound. Returns
// the IDs evicted to make room. A handle whose (fingerprint, value digest)
// matches a resident group joins it as an alias: zero nnz charged, no
// eviction pressure, AliasOf set to the group's charged member. A handle that
// opens a group is an original and leaves with AliasOf empty, whatever the
// caller set: the member a FindDuplicate named may be gone by now.
func (r *Registry) Add(h *Handle) (evicted []string, err error) {
	nnz := int64(h.NNZ)
	key := h.dedupKey()
	// Evicted handles are closed once r.mu is released (deferred first, so it
	// runs last): Close waits for the handle's own mutex, which a kernel or an
	// inline stage 2 may hold for a long time, and no lookup should wait with it.
	var victims []*Handle
	defer func() {
		for _, v := range victims {
			v.SA.Close()
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.groups[key]
	if key != "" && g != nil && len(g.members) > 0 {
		r.nextID++
		h.ID = fmt.Sprintf("m%d", r.nextID)
		h.AliasOf = g.chargedID
		g.members[h.ID] = h
		r.entries[h.ID] = &regEntry{h: h, elem: r.lru.PushFront(h)}
		r.metrics.RegistryMatrices.Add(1)
		r.metrics.DedupHits.Add(1)
		r.metrics.DedupSavedNNZ.Add(nnz)
		return nil, nil
	}
	if nnz > r.maxNNZ {
		return nil, fmt.Errorf("server: matrix has %d nonzeros, registry capacity is %d", nnz, r.maxNNZ)
	}
	for r.curNNZ+nnz > r.maxNNZ {
		back := r.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*Handle)
		r.removeLocked(victim.ID)
		r.metrics.Evictions.Add(1)
		victims = append(victims, victim)
		evicted = append(evicted, victim.ID)
	}
	r.nextID++
	h.ID = fmt.Sprintf("m%d", r.nextID)
	h.AliasOf = ""
	r.entries[h.ID] = &regEntry{h: h, elem: r.lru.PushFront(h)}
	if key != "" {
		r.groups[key] = &dedupGroup{
			members:   map[string]*Handle{h.ID: h},
			chargedID: h.ID,
			nnz:       nnz,
			bytes:     h.csr.Bytes(),
		}
	}
	r.curNNZ += nnz
	r.metrics.RegistryMatrices.Add(1)
	r.metrics.RegistryNNZ.Add(nnz)
	r.metrics.RegistryBytes.Add(h.csr.Bytes())
	return evicted, nil
}

// Get looks a handle up and marks it most recently used.
func (r *Registry) Get(id string) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(e.elem)
	return e.h, true
}

// Delete removes a handle by ID and abandons any background conversion it
// still has in flight, after r.mu is released (see Add).
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	e, ok := r.entries[id]
	if ok {
		r.removeLocked(id)
	}
	r.mu.Unlock()
	if ok {
		e.h.SA.Close()
	}
	return ok
}

// removeLocked unlinks an entry and updates occupancy metrics. Caller holds
// r.mu, has verified the ID exists, and closes the handle's wrapper once it
// has let r.mu go. For deduplicated handles, removing
// the charged member while aliases survive transfers the charge (the shared
// arrays are still resident); only the group's last member releases
// capacity.
func (r *Registry) removeLocked(id string) {
	e := r.entries[id]
	r.lru.Remove(e.elem)
	delete(r.entries, id)
	r.metrics.RegistryMatrices.Add(-1)
	if key := e.h.dedupKey(); key != "" {
		if g := r.groups[key]; g != nil {
			delete(g.members, id)
			if len(g.members) == 0 {
				delete(r.groups, key)
				r.curNNZ -= g.nnz
				r.metrics.RegistryNNZ.Add(-g.nnz)
				r.metrics.RegistryBytes.Add(-g.bytes)
			} else if g.chargedID == id {
				for mid := range g.members {
					g.chargedID = mid
					break
				}
			}
			return
		}
	}
	r.curNNZ -= int64(e.h.NNZ)
	r.metrics.RegistryNNZ.Add(-int64(e.h.NNZ))
	r.metrics.RegistryBytes.Add(-e.h.csr.Bytes())
}

// List snapshots the registered handles, most recently used first.
func (r *Registry) List() []*Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Handle, 0, r.lru.Len())
	for e := r.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*Handle))
	}
	return out
}

// Occupancy reports current and maximum total nnz.
func (r *Registry) Occupancy() (cur, max int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.curNNZ, r.maxNNZ
}
