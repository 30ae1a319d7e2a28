package server

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
)

// parkClock blocks the first Now call made on it until release is closed,
// and closes parked once that call is in; every other call is the wall
// clock's. A wrapper reads its clock inside SpMV, under its mutex, so the
// parked caller holds that mutex for as long as the test likes.
type parkClock struct {
	mu              sync.Mutex
	taken           bool
	let             sync.Once
	parked, release chan struct{}
}

// newParkClock also releases the clock when the test ends, so a failed test
// leaves nothing parked behind it.
func newParkClock(t *testing.T) *parkClock {
	c := &parkClock{parked: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(c.Release)
	return c
}

func (c *parkClock) Now() time.Time {
	c.mu.Lock()
	first := !c.taken
	c.taken = true
	c.mu.Unlock()
	if first {
		close(c.parked)
		<-c.release
	}
	return time.Now()
}

// Release lets the parked call go; it is idempotent.
func (c *parkClock) Release() { c.let.Do(func() { close(c.release) }) }

// within fails the test unless done closes inside the timeout.
func within(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is still waiting after 5s", what)
	}
}

// makeHandle builds an unregistered handle around an n x n single-diagonal
// matrix (nnz == n), so capacity arithmetic in the tests is exact.
func makeHandle(t *testing.T, name string, n int) *Handle {
	t.Helper()
	csr, err := matgen.Banded(n, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if csr.NNZ() != n {
		t.Fatalf("diagonal matrix has nnz %d, want %d", csr.NNZ(), n)
	}
	ad := core.NewAdaptive(csr, 1e-8, nil, core.DefaultConfig(), false)
	rows, cols := csr.Dims()
	return &Handle{
		Name: name, Rows: rows, Cols: cols, NNZ: csr.NNZ(),
		Tol: 1e-8, Created: time.Now(), SA: ad, csr: csr,
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	m := &Metrics{}
	r := NewRegistry(250, m)

	a := makeHandle(t, "a", 100)
	b := makeHandle(t, "b", 100)
	if _, err := r.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the LRU victim.
	if _, ok := r.Get(a.ID); !ok {
		t.Fatal("a vanished")
	}
	c := makeHandle(t, "c", 100)
	evicted, err := r.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != b.ID {
		t.Errorf("evicted %v, want [%s]", evicted, b.ID)
	}
	if _, ok := r.Get(b.ID); ok {
		t.Error("evicted handle still resolvable")
	}
	if _, ok := r.Get(a.ID); !ok {
		t.Error("recently used handle was evicted")
	}
	if got := m.Evictions.Load(); got != 1 {
		t.Errorf("eviction counter %d, want 1", got)
	}
	if cur, _ := r.Occupancy(); cur != 200 {
		t.Errorf("occupancy %d, want 200", cur)
	}
	if got := m.RegistryMatrices.Load(); got != 2 {
		t.Errorf("registry matrices %d, want 2", got)
	}
	if got := m.RegistryNNZ.Load(); got != 200 {
		t.Errorf("registry nnz %d, want 200", got)
	}
}

func TestRegistryEvictsSeveralForOneBigInsert(t *testing.T) {
	r := NewRegistry(300, nil)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Add(makeHandle(t, name, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// 150 nnz into a full 300-capacity registry: two of the three 100-nnz
	// residents must go (one eviction leaves 200+150 > 300).
	big := makeHandle(t, "big", 150)
	evicted, err := r.Add(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 {
		t.Errorf("evicted %d handles, want 2", len(evicted))
	}
	if len(r.List()) != 2 {
		t.Errorf("%d handles resident, want 2", len(r.List()))
	}
}

func TestRegistryRejectsOversizedMatrix(t *testing.T) {
	r := NewRegistry(50, nil)
	if _, err := r.Add(makeHandle(t, "big", 100)); err == nil {
		t.Fatal("matrix larger than the registry was accepted")
	}
	if len(r.List()) != 0 {
		t.Error("rejected matrix left residue")
	}
}

func TestRegistryDeleteLifecycle(t *testing.T) {
	m := &Metrics{}
	r := NewRegistry(1000, m)
	h := makeHandle(t, "a", 100)
	if _, err := r.Add(h); err != nil {
		t.Fatal(err)
	}
	if h.ID == "" {
		t.Fatal("Add did not assign an ID")
	}
	if !r.Delete(h.ID) {
		t.Fatal("Delete failed")
	}
	if r.Delete(h.ID) {
		t.Error("double delete succeeded")
	}
	if _, ok := r.Get(h.ID); ok {
		t.Error("deleted handle resolvable")
	}
	if cur, _ := r.Occupancy(); cur != 0 {
		t.Errorf("occupancy %d after delete, want 0", cur)
	}
	if got := m.RegistryBytes.Load(); got != 0 {
		t.Errorf("registry bytes %d after delete, want 0", got)
	}
}

// TestRegistryAliasOfFollowsTheGroupJoined replays the register path's
// check-then-act window: FindDuplicate names m1, m1 is deleted, then Add
// runs. The new handle opens a fresh group, so it is an original — charged
// the full nnz and naming no duplicate — not an alias of a handle that is
// gone. A later copy that does join a group names the group's charged
// member, whatever its caller had put in AliasOf.
func TestRegistryAliasOfFollowsTheGroupJoined(t *testing.T) {
	m := &Metrics{}
	r := NewRegistry(1000, m)
	keyed := func(name string) *Handle {
		h := makeHandle(t, name, 100)
		h.Fingerprint, h.ValueDigest = h.csr.Fingerprint(), h.csr.ValueDigest()
		return h
	}
	orig := keyed("orig")
	if _, err := r.Add(orig); err != nil {
		t.Fatal(err)
	}
	dup, ok := r.FindDuplicate(orig.Fingerprint, orig.ValueDigest)
	if !ok || dup.ID != orig.ID {
		t.Fatalf("FindDuplicate = %v, %v; want %s", dup, ok, orig.ID)
	}
	late := keyed("late")
	late.AliasOf = dup.ID
	if !r.Delete(orig.ID) {
		t.Fatal("Delete failed")
	}
	if _, err := r.Add(late); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(orig.ID); ok {
		t.Fatalf("%s still resolves after Delete", orig.ID)
	}
	if late.AliasOf != "" {
		t.Errorf("handle that opened a new group has AliasOf %q, a deleted handle", late.AliasOf)
	}
	if cur, _ := r.Occupancy(); cur != 100 {
		t.Errorf("occupancy %d, want 100: the new original is charged in full", cur)
	}

	twin := keyed("twin")
	twin.AliasOf = orig.ID
	if _, err := r.Add(twin); err != nil {
		t.Fatal(err)
	}
	if twin.AliasOf != late.ID {
		t.Errorf("copy joining %s's group has AliasOf %q", late.ID, twin.AliasOf)
	}
	if cur, _ := r.Occupancy(); cur != 100 || m.DedupHits.Load() != 1 {
		t.Errorf("occupancy %d, dedup hits %d after the copy; want 100, 1", cur, m.DedupHits.Load())
	}
}

func TestHandleDiag(t *testing.T) {
	h := makeHandle(t, "d", 10)
	d := h.Diag()
	if len(d) != 10 {
		t.Fatalf("diag length %d", len(d))
	}
	for i, v := range d {
		if v != h.csr.At(i, i) {
			t.Errorf("diag[%d] = %g, want %g", i, v, h.csr.At(i, i))
		}
	}
}

// TestRegistryNeverWaitsForAHandleUnderItsLock parks an SpMV inside handle
// A's mutex: deleting A, a lookup of B and an insert that evicts B all go
// through while the SpMV is still parked, because the registry never takes
// a handle's mutex.
func TestRegistryNeverWaitsForAHandleUnderItsLock(t *testing.T) {
	r := NewRegistry(250, &Metrics{})
	clk := newParkClock(t)
	a := makeHandle(t, "a", 100)
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	a.SA = core.NewAdaptive(a.csr, 1e-8, nil, cfg, false)
	b, c := makeHandle(t, "b", 100), makeHandle(t, "c", 200)
	for _, h := range []*Handle{a, b} {
		if _, err := r.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	spmv := make(chan struct{})
	go func() {
		defer close(spmv)
		a.SA.SpMV(make([]float64, a.Rows), make([]float64, a.Cols))
	}()
	within(t, "the SpMV that parks on the clock", clk.parked)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if !r.Delete(a.ID) {
			t.Error("Delete(a) found nothing")
		}
		if _, ok := r.Get(a.ID); ok {
			t.Error("Get(a) found a deleted handle")
		}
		if _, ok := r.Get(b.ID); !ok {
			t.Error("Get(b) found nothing")
		}
		if evicted, err := r.Add(c); err != nil || len(evicted) != 1 {
			t.Errorf("Add(c) evicted %v, err %v; want b evicted", evicted, err)
		}
	}()
	within(t, "a delete, a lookup and an insert beside a parked handle", done)
	select {
	case <-spmv:
		t.Error("the SpMV returned before its release: the test parked nothing")
	default:
	}
	clk.Release()
	within(t, "the parked SpMV", spmv)
}
