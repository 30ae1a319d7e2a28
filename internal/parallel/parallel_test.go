package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, MinParallelWork - 1, MinParallelWork, MinParallelWork*3 + 17} {
		var count int64
		hits := make([]int32, n)
		ForThreshold(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
				atomic.AddInt64(&count, 1)
			}
		})
		if count != int64(n) {
			t.Errorf("n=%d: visited %d elements", n, count)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("n=%d: element %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForSmallRunsInline(t *testing.T) {
	// Below the threshold the body must be called exactly once with the
	// whole range.
	calls := 0
	For(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("inline call got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("inline path made %d calls", calls)
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	For(0, func(lo, hi int) { called = true })
	For(-5, func(lo, hi int) { called = true })
	if called {
		t.Error("body called for non-positive n")
	}
}

func TestPartitionByWeightBalance(t *testing.T) {
	// Uniform weights: partitions should be near-equal.
	n := 100
	cum := make([]int, n+1)
	for i := 1; i <= n; i++ {
		cum[i] = i
	}
	ranges := PartitionByWeight(n, 4, cum)
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges, want 4", len(ranges))
	}
	prev := 0
	for _, r := range ranges {
		if r[0] != prev {
			t.Fatalf("gap or overlap at %v", r)
		}
		w := cum[r[1]] - cum[r[0]]
		if w < 20 || w > 30 {
			t.Errorf("range %v weight %d, want ~25", r, w)
		}
		prev = r[1]
	}
	if prev != n {
		t.Fatalf("ranges end at %d, want %d", prev, n)
	}
}

func TestPartitionByWeightSkewed(t *testing.T) {
	// First element holds 90% of the weight: it must get its own range and
	// the rest must still be covered.
	n := 10
	cum := make([]int, n+1)
	cum[1] = 900
	for i := 2; i <= n; i++ {
		cum[i] = cum[i-1] + 10
	}
	ranges := PartitionByWeight(n, 4, cum)
	covered := 0
	for _, r := range ranges {
		if r[0] >= r[1] {
			t.Errorf("empty range %v", r)
		}
		covered += r[1] - r[0]
	}
	if covered != n {
		t.Errorf("covered %d of %d", covered, n)
	}
	if ranges[0] != [2]int{0, 1} {
		t.Errorf("heavy element range = %v, want [0,1)", ranges[0])
	}
}

func TestPartitionByWeightEdgeCases(t *testing.T) {
	if got := PartitionByWeight(0, 4, []int{0}); got != nil {
		t.Errorf("n=0: %v", got)
	}
	if got := PartitionByWeight(5, 0, []int{0, 1, 2, 3, 4, 5}); got != nil {
		t.Errorf("parts=0: %v", got)
	}
	// More parts than elements: at most n ranges.
	cum := []int{0, 1, 2}
	ranges := PartitionByWeight(2, 10, cum)
	if len(ranges) > 2 {
		t.Errorf("got %d ranges for 2 elements", len(ranges))
	}
	// All-zero weights must still cover everything.
	zero := make([]int, 8)
	ranges = PartitionByWeight(7, 3, zero)
	covered := 0
	for _, r := range ranges {
		covered += r[1] - r[0]
	}
	if covered != 7 {
		t.Errorf("zero weights covered %d of 7", covered)
	}
}

func TestQuickPartitionCoversAll(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		parts := int(pRaw)%16 + 1
		cum := make([]int, n+1)
		for i := 1; i <= n; i++ {
			cum[i] = cum[i-1] + rng.Intn(100)
		}
		ranges := PartitionByWeight(n, parts, cum)
		prev := 0
		for _, r := range ranges {
			if r[0] != prev || r[1] <= r[0] {
				return false
			}
			prev = r[1]
		}
		return prev == n
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestForRanges(t *testing.T) {
	hits := make([]int32, 50)
	ForRanges([][2]int{{0, 10}, {10, 35}, {35, 50}}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("element %d visited %d times", i, h)
		}
	}
	ForRanges(nil, func(lo, hi int) { t.Error("body called for empty ranges") })
}

func TestForEach(t *testing.T) {
	for _, n := range []int{0, 1, 2, 37} {
		hits := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}
