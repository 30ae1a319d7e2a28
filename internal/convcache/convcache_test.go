package convcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// diagCSR builds an n x n diagonal matrix with the given scale, a distinct
// structure per n so tests can mint as many fingerprints as they need.
func diagCSR(t *testing.T, n int, scale float64) *sparse.CSR {
	t.Helper()
	ptr := make([]int, n+1)
	col := make([]int32, n)
	data := make([]float64, n)
	for i := 0; i < n; i++ {
		ptr[i+1] = i + 1
		col[i] = int32(i)
		data[i] = scale * float64(i+1)
	}
	m, err := sparse.NewCSR(n, n, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func keyOf(a *sparse.CSR, f sparse.Format) Key {
	return Key{Fingerprint: a.Fingerprint(), Values: a.ValueDigest(), Format: f}
}

func TestLookupPublishHitMiss(t *testing.T) {
	c := New(0)
	a := diagCSR(t, 8, 1.0)
	k := keyOf(a, sparse.FmtSELL)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("hit on empty cache")
	}
	m, err := sparse.ConvertFromCSR(a, sparse.FmtSELL, sparse.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	c.Publish(k, Entry{M: m, ConvertSeconds: 0.5, NNZ: a.NNZ()})
	e, ok := c.Lookup(k)
	if !ok || e.M != m || e.ConvertSeconds != 0.5 {
		t.Fatalf("lookup after publish: ok=%v entry=%+v", ok, e)
	}
	// Different values, same structure: distinct key, no hit.
	b := diagCSR(t, 8, -2.0)
	if b.Fingerprint() != a.Fingerprint() {
		t.Fatal("test setup: fingerprints should match")
	}
	if _, ok := c.Lookup(keyOf(b, sparse.FmtSELL)); ok {
		t.Fatal("cache crossed a value-digest boundary")
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 2 || st.Publishes != 1 || st.Entries != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if !c.Has(k) || c.Has(keyOf(b, sparse.FmtSELL)) {
		t.Fatal("Has disagrees with contents")
	}
	if got := c.Snapshot(); got.Hits != st.Hits || got.Misses != st.Misses {
		t.Fatal("Has must not touch hit/miss counters")
	}
}

// TestEvictionDoesNotInvalidateAdopted publishes entries past the nnz
// budget so the LRU evicts the first one, then keeps using the matrix a
// "handle" adopted from that evicted entry: eviction only drops the cache's
// reference, never the adopter's.
func TestEvictionDoesNotInvalidateAdopted(t *testing.T) {
	c := New(20)
	a := diagCSR(t, 10, 1.0)
	ka := keyOf(a, sparse.FmtSELL)
	ma, err := sparse.ConvertFromCSR(a, sparse.FmtSELL, sparse.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	c.Publish(ka, Entry{M: ma, ConvertSeconds: 0.1, NNZ: a.NNZ()})
	adopted, ok := c.Lookup(ka)
	if !ok {
		t.Fatal("no hit on fresh entry")
	}
	// Two more 10-nnz entries blow the 20-nnz budget; a is oldest once the
	// others are touched, so it goes.
	for i, n := range []int{11, 12} {
		b := diagCSR(t, n, 1.0)
		mb, err := sparse.ConvertFromCSR(b, sparse.FmtSELL, sparse.DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		c.Publish(keyOf(b, sparse.FmtSELL), Entry{M: mb, ConvertSeconds: 0.1, NNZ: b.NNZ()})
		_ = i
	}
	if c.Has(ka) {
		t.Fatal("oldest entry survived past the budget")
	}
	st := c.Snapshot()
	if st.Evictions == 0 || st.NNZ > 20 {
		t.Fatalf("eviction accounting: %+v", st)
	}
	// The adopted matrix still computes correctly after eviction.
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 10)
	adopted.M.SpMV(y, x)
	for i := range y {
		if y[i] != float64(i+1) {
			t.Fatalf("adopted matrix corrupted after eviction: y[%d]=%g", i, y[i])
		}
	}
}

func TestOversizedEntryRefused(t *testing.T) {
	c := New(5)
	a := diagCSR(t, 10, 1.0)
	m, err := sparse.ConvertFromCSR(a, sparse.FmtSELL, sparse.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	c.Publish(keyOf(a, sparse.FmtSELL), Entry{M: m, NNZ: a.NNZ()})
	if st := c.Snapshot(); st.Entries != 0 || st.Publishes != 0 {
		t.Fatalf("oversized entry accepted: %+v", st)
	}
}

func TestFirstPublisherWins(t *testing.T) {
	c := New(0)
	a := diagCSR(t, 6, 1.0)
	k := keyOf(a, sparse.FmtSELL)
	m1, _ := sparse.ConvertFromCSR(a, sparse.FmtSELL, sparse.DefaultLimits)
	m2, _ := sparse.ConvertFromCSR(a, sparse.FmtSELL, sparse.DefaultLimits)
	c.Publish(k, Entry{M: m1, ConvertSeconds: 1, NNZ: a.NNZ()})
	c.Publish(k, Entry{M: m2, ConvertSeconds: 2, NNZ: a.NNZ()})
	e, ok := c.Lookup(k)
	if !ok || e.M != m1 || e.ConvertSeconds != 1 {
		t.Fatalf("duplicate publish displaced the original: %+v", e)
	}
	if st := c.Snapshot(); st.NNZ != int64(a.NNZ()) {
		t.Fatalf("duplicate publish double-charged nnz: %+v", st)
	}
}

// TestConcurrent hammers the cache from many goroutines (run under -race):
// concurrent publishers and readers over a small budget so evictions race
// with lookups, plus adopters that keep computing on whatever they got.
func TestConcurrent(t *testing.T) {
	c := New(200)
	const goroutines = 8
	mats := make([]*sparse.CSR, 12)
	ells := make([]sparse.Matrix, 12)
	for i := range mats {
		mats[i] = diagCSR(t, 20+i, 1.0)
		m, err := sparse.ConvertFromCSR(mats[i], sparse.FmtSELL, sparse.DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		ells[i] = m
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (g + i) % len(mats)
				k := keyOf(mats[idx], sparse.FmtSELL)
				if e, ok := c.Lookup(k); ok {
					n, _ := e.M.Dims()
					x := make([]float64, n)
					y := make([]float64, n)
					e.M.SpMV(y, x)
				} else {
					c.Publish(k, Entry{M: ells[idx], ConvertSeconds: 0.01, NNZ: mats[idx].NNZ()})
				}
				c.Has(k)
			}
		}(g)
	}
	wg.Wait()
	st := c.Snapshot()
	if st.NNZ > 200 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if st.Publishes == 0 || st.Hits == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}

func ExampleCache() {
	c := New(0)
	fmt.Println(c.Snapshot().Entries)
	// Output: 0
}
