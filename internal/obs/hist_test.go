package obs

import (
	"math"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(b) != len(want) {
		t.Fatalf("got %d bounds, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bound[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Error("degenerate layouts should return nil")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	// Dropped: negative and NaN must not perturb anything.
	h.Observe(-1)
	h.Observe(math.NaN())

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	wantCounts := []uint64{2, 2, 1, 1} // (..1], (1..10], (10..100], overflow
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if want := 0.5 + 1 + 5 + 10 + 50 + 1000; s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, float64(want))
	}
	if got, want := s.Mean(), s.Sum/6; got != want {
		t.Errorf("mean = %g, want %g", got, want)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Errorf("nil histogram snapshot = %+v", s)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(3)
	sa, sb := a.Snapshot(), b.Snapshot()
	if !sa.Merge(sb) {
		t.Fatal("same-layout merge refused")
	}
	if sa.Count != 3 || sa.Sum != 5 {
		t.Errorf("merged count %d sum %g, want 3 / 5", sa.Count, sa.Sum)
	}
	if sa.Counts[0] != 1 || sa.Counts[1] != 1 || sa.Counts[2] != 1 {
		t.Errorf("merged counts %v", sa.Counts)
	}
	other := NewHistogram([]float64{1, 3}).Snapshot()
	before := sa
	if sa.Merge(other) {
		t.Error("mismatched layouts merged")
	}
	if sa.Count != before.Count {
		t.Error("failed merge mutated the receiver")
	}
}

func TestSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.6, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("q0.5 = %g, want 2", got)
	}
	if got := s.Quantile(0.8); got != 4 {
		t.Errorf("q0.8 = %g, want 4", got)
	}
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("q1 = %g, want +Inf", got)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while a reader
// snapshots continuously — the -race run of this test is the lock-freedom
// proof; the final snapshot must account for every observation exactly.
func TestHistogramConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 5000
	)
	h := NewLatencyHistogram()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			// Monotone counters: a mid-flight snapshot never exceeds the
			// final total.
			if s.Count > writers*perW {
				t.Error("snapshot count exceeds total observations")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(1e-6 * float64(w*perW+i+1))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("count = %d, want %d", s.Count, writers*perW)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	// Sum of an arithmetic series of the observed values, to float tolerance.
	n := float64(writers * perW)
	want := 1e-6 * n * (n + 1) / 2
	if diff := math.Abs(s.Sum-want) / want; diff > 1e-9 {
		t.Errorf("sum = %g, want %g (rel err %g)", s.Sum, want, diff)
	}
}

// TestSnapshotMergeCommutative pins the algebra the router's cluster-wide
// rollup depends on: folding per-shard snapshots from a zero accumulator
// must give the same result in any order, the zero value must act as the
// identity on both sides, and the implicit +Inf overflow bucket must stay
// consistent (sum of Counts == Count) through every fold.
func TestSnapshotMergeCommutative(t *testing.T) {
	mk := func(vals ...float64) HistSnapshot {
		h := NewHistogram([]float64{0.01, 0.1, 1})
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	shards := []HistSnapshot{
		mk(0.005, 0.05),
		mk(0.5, 2, 100), // 100 lands in the +Inf overflow bucket
		mk(),            // a shard with no traffic yet
		mk(0.02),
	}
	fold := func(order []int) HistSnapshot {
		var acc HistSnapshot
		for _, i := range order {
			if !acc.Merge(shards[i]) {
				t.Fatalf("fold refused snapshot %d", i)
			}
		}
		return acc
	}
	a := fold([]int{0, 1, 2, 3})
	b := fold([]int{3, 2, 1, 0})
	c := fold([]int{2, 0, 3, 1})
	for name, s := range map[string]HistSnapshot{"forward": a, "reverse": b, "mixed": c} {
		if s.Count != a.Count || s.Sum != a.Sum {
			t.Errorf("%s fold: count %d sum %g, want %d / %g", name, s.Count, s.Sum, a.Count, a.Sum)
		}
		var bucketTotal uint64
		for _, cnt := range s.Counts {
			bucketTotal += cnt
		}
		if bucketTotal != s.Count {
			t.Errorf("%s fold: bucket total %d != count %d (+Inf bucket inconsistent)", name, bucketTotal, s.Count)
		}
		for i := range a.Counts {
			if s.Counts[i] != a.Counts[i] {
				t.Errorf("%s fold: bucket %d = %d, want %d", name, i, s.Counts[i], a.Counts[i])
			}
		}
	}
	// Zero on the right is also the identity.
	before := a
	if !a.Merge(HistSnapshot{}) {
		t.Fatal("merging the zero snapshot refused")
	}
	if a.Count != before.Count || a.Sum != before.Sum {
		t.Error("zero-snapshot merge changed the accumulator")
	}
}
