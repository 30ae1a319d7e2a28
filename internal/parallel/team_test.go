package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTeamForCoversRangeExactlyOnce(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, n := range []int{0, 1, 7, MinParallelWork - 1, MinParallelWork, MinParallelWork*3 + 17} {
		var count int64
		hits := make([]int32, n)
		team.ForThreshold(n, 1, func(lo, hi int) {
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

func TestTeamForRangesIndexed(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	ranges := [][2]int{{0, 10}, {10, 35}, {35, 50}, {50, 51}}
	got := make([][2]int, len(ranges))
	team.ForRangesIndexed(ranges, func(w, lo, hi int) {
		got[w] = [2]int{lo, hi}
	})
	for w, r := range ranges {
		if got[w] != r {
			t.Errorf("index %d ran range %v, want %v", w, got[w], r)
		}
	}
}

// TestTeamConcurrentHammer drives one shared team from many goroutines at
// once — the ocsd worker-pool scenario — and checks every dispatch still
// covers its range exactly once. Run under -race this also proves the
// claiming and completion protocol is properly synchronized.
func TestTeamConcurrentHammer(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	const (
		goroutines = 8
		iters      = 100
		n          = 10_000
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			hits := make([]int32, n)
			for it := 0; it < iters; it++ {
				for i := range hits {
					hits[i] = 0
				}
				team.ForThreshold(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i := range hits {
					if atomic.LoadInt32(&hits[i]) != 1 {
						errs <- "incomplete or duplicated coverage"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := team.Stats()
	if st.Dispatches == 0 {
		t.Error("hammer made no team dispatches")
	}
}

// TestTeamNestedDispatch checks that a body running on a team worker can
// itself dispatch on the same team without deadlocking: the inner dispatch
// never blocks waiting for workers, it just runs chunks itself.
func TestTeamNestedDispatch(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	const n = 64
	var total atomic.Int64
	team.ForThreshold(n, 1, func(lo, hi int) {
		team.ForThreshold(n, 1, func(ilo, ihi int) {
			total.Add(int64(ihi - ilo))
		})
	})
	// Each outer chunk runs a full inner loop over n elements; the outer
	// chunk count varies with claiming, so check divisibility instead.
	if got := total.Load(); got == 0 || got%int64(n) != 0 {
		t.Errorf("nested dispatch covered %d elements, want a positive multiple of %d", got, n)
	}
}

func TestTeamCloseIdempotentAndInlineAfter(t *testing.T) {
	team := NewTeam(4)
	team.Close()
	team.Close() // must not panic or hang
	var count int64
	team.ForThreshold(1000, 1, func(lo, hi int) {
		atomic.AddInt64(&count, int64(hi-lo))
	})
	if count != 1000 {
		t.Errorf("closed team covered %d of 1000", count)
	}
}

// TestTeamCloseWaitsForBusyWorker: Close while a Go job holds a worker
// returns only after the job ends, and none of the team's goroutines
// outlives it.
func TestTeamCloseWaitsForBusyWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(3)
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	team.Go(func() {
		close(started)
		<-release
		finished.Store(true)
	})
	<-started
	closing, closed := make(chan struct{}), make(chan struct{})
	go func() {
		close(closing)
		team.Close()
		close(closed)
	}()
	<-closing
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job still held a worker")
	default:
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Error("Close returned before the job finished")
	}
	// A worker is past its last instruction that matters once its wake
	// channel is closed, but the runtime retires it a moment later.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewTeam", runtime.NumGoroutine(), before)
		}
	}
}

func TestTeamWidthAndStats(t *testing.T) {
	team := NewTeam(5)
	defer team.Close()
	if w := team.Width(); w != 5 {
		t.Errorf("Width = %d, want 5", w)
	}
	team.ForThreshold(MinParallelWork*2, 1, func(lo, hi int) {})
	st := team.Stats()
	if st.Dispatches != 1 {
		t.Errorf("Dispatches = %d, want 1", st.Dispatches)
	}
}

func TestDefaultTeamGrowsWithGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	var count int64
	For(MinParallelWork*2, func(lo, hi int) {
		atomic.AddInt64(&count, int64(hi-lo))
	})
	if count != MinParallelWork*2 {
		t.Fatalf("covered %d of %d", count, MinParallelWork*2)
	}
	if st := DefaultStats(); st.Width < 2 {
		t.Errorf("default team width %d after GOMAXPROCS(2), want >= 2", st.Width)
	}

	runtime.GOMAXPROCS(4)
	For(MinParallelWork*2, func(lo, hi int) {})
	if st := DefaultStats(); st.Width < 4 {
		t.Errorf("default team width %d after GOMAXPROCS(4), want >= 4", st.Width)
	}
}

func TestEvenRanges(t *testing.T) {
	cases := []struct {
		n, parts int
		want     int // expected range count, -1 for nil
	}{
		{0, 4, -1},
		{10, 0, -1},
		{10, 1, 1},
		{10, 3, 3},
		{3, 10, 3},
		{100, 7, 7},
	}
	for _, c := range cases {
		got := EvenRanges(c.n, c.parts)
		if c.want == -1 {
			if got != nil {
				t.Errorf("EvenRanges(%d,%d) = %v, want nil", c.n, c.parts, got)
			}
			continue
		}
		if len(got) != c.want {
			t.Errorf("EvenRanges(%d,%d) has %d ranges, want %d", c.n, c.parts, len(got), c.want)
		}
		prev := 0
		for _, r := range got {
			if r[0] != prev || r[1] <= r[0] {
				t.Errorf("EvenRanges(%d,%d): bad range %v after %d", c.n, c.parts, r, prev)
			}
			prev = r[1]
		}
		if prev != c.n {
			t.Errorf("EvenRanges(%d,%d) ends at %d", c.n, c.parts, prev)
		}
	}
}
