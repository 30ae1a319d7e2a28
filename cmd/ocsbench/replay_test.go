package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeReplayClock drives a replayEngine deterministically: sleep advances
// the clock, and the scripted do() advances it by the request's service
// time.
type fakeReplayClock struct {
	at time.Time
}

func (c *fakeReplayClock) now() time.Time        { return c.at }
func (c *fakeReplayClock) sleep(d time.Duration) { c.at = c.at.Add(d) }
func (c *fakeReplayClock) serve(d time.Duration) { c.at = c.at.Add(d) }

func TestScheduleFixed(t *testing.T) {
	offsets, err := schedule("fixed", 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i := range want {
		if offsets[i] != want[i] {
			t.Errorf("offset[%d] = %v, want %v", i, offsets[i], want[i])
		}
	}
}

func TestSchedulePoisson(t *testing.T) {
	a, err := schedule("poisson", 100, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule("poisson", 100, 50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("arrival offsets not monotone")
		}
	}
	if a[0] != 0 {
		t.Errorf("first arrival at %v, want 0", a[0])
	}
	// Mean inter-arrival gap should be near 1/rate (law of large numbers
	// at n=50 is loose; just require the right order of magnitude).
	mean := a[len(a)-1].Seconds() / float64(len(a)-1)
	if mean < 1.0/400 || mean > 4.0/100 {
		t.Errorf("mean gap %v s at rate 100", mean)
	}
	if _, err := schedule("uniform", 10, 1, 1); err == nil {
		t.Error("unknown arrival accepted")
	}
	if _, err := schedule("fixed", 0, 1, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestReplayCoordinatedOmission is the stall test: with a 100ms fixed-rate
// schedule on one connection, a scripted 350ms stall on the first request
// must inflate the *recorded* latency of the requests it delayed — they are
// measured from their intended send times, not from when the stalled
// connection got around to them.
func TestReplayCoordinatedOmission(t *testing.T) {
	clk := &fakeReplayClock{at: time.Unix(1_700_000_000, 0)}
	service := []time.Duration{
		350 * time.Millisecond, // the stall
		10 * time.Millisecond,
		10 * time.Millisecond,
		10 * time.Millisecond,
	}
	eng := &replayEngine{
		now:   clk.now,
		sleep: clk.sleep,
		ops:   []string{"spmv", "spmv", "spmv", "spmv"},
		do: func(i int, op string) (string, error) {
			clk.serve(service[i])
			return "", nil
		},
	}
	offsets, err := schedule("fixed", 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := eng.run(offsets, 1)

	// Request 0: intended t=0, served for 350ms → latency 350ms.
	// Request 1: intended t=100ms but the connection frees at t=350ms;
	// 10ms of service ends at 360ms → recorded latency 260ms, of which
	// 250ms is the inherited stall.
	// Request 2: intended 200ms, starts 360ms, ends 370ms → 170ms.
	// Request 3: intended 300ms, starts 370ms, ends 380ms → 80ms.
	want := []float64{0.350, 0.260, 0.170, 0.080}
	for i, s := range samples {
		if math.Abs(s.seconds-want[i]) > 1e-9 {
			t.Errorf("request %d recorded %.3fs, want %.3fs (stall not charged)", i, s.seconds, want[i])
		}
	}
	// The naive (coordinated-omission-blind) measurement would have
	// recorded 10ms for request 1; make the distinction explicit.
	if samples[1].seconds < 0.25 {
		t.Error("request 1 lost the backlog delay it inherited from the stall")
	}
}

// TestReplayNoStallMatchesService: on schedule, recorded latency equals
// service time exactly.
func TestReplayNoStallMatchesService(t *testing.T) {
	clk := &fakeReplayClock{at: time.Unix(1_700_000_000, 0)}
	eng := &replayEngine{
		now:   clk.now,
		sleep: clk.sleep,
		ops:   []string{"spmv", "solve", "spmv"},
		do: func(i int, op string) (string, error) {
			clk.serve(5 * time.Millisecond)
			return "trace-" + op, nil
		},
	}
	offsets, _ := schedule("fixed", 10, 3, 1)
	samples := eng.run(offsets, 1)
	for i, s := range samples {
		if math.Abs(s.seconds-0.005) > 1e-9 {
			t.Errorf("request %d recorded %.4fs, want 5ms", i, s.seconds)
		}
		if s.trace != "trace-"+eng.ops[i] {
			t.Errorf("request %d trace %q", i, s.trace)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("spmv=8, solve=1,register=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].op != "spmv" || mix[0].weight != 8 {
		t.Errorf("mix = %+v", mix)
	}
	if _, err := parseMix("delete=1"); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := parseMix("spmv=0"); err == nil {
		t.Error("empty effective mix accepted")
	}
	ops := assignOps(mix, 1000, 3)
	counts := map[string]int{}
	for _, op := range ops {
		counts[op]++
	}
	if counts["spmv"] < counts["solve"] || counts["spmv"] < counts["register"] {
		t.Errorf("weighted mix not respected: %v", counts)
	}
	again := assignOps(mix, 1000, 3)
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatal("same seed produced a different op sequence")
		}
	}
}

func TestPercentileExact(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q, want float64
	}{
		{0.5, 5}, {0.99, 10}, {0.999, 10}, {0.1, 1}, {1, 10},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q*100, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample percentile not NaN")
	}
}

func TestBuildReportBurn(t *testing.T) {
	slo := obs.NewSLOTracker(replayObjectives(), nil, nil)
	samples := []replaySample{
		{op: "spmv", seconds: 0.01},
		{op: "spmv", seconds: 0.02},
		{op: "spmv", seconds: 1.0}, // over the 0.25s target → bad
		{op: "solve", seconds: 0.5, failed: true},
	}
	for _, s := range samples {
		slo.Record(s.op, s.seconds, s.failed)
	}
	eps := buildReport(samples, slo)
	if len(eps) != 2 || eps[0].Endpoint != "solve" || eps[1].Endpoint != "spmv" {
		t.Fatalf("endpoints = %+v", eps)
	}
	spmv := eps[1]
	if spmv.Count != 3 || spmv.P50 != 0.02 || spmv.P99 != 1.0 || spmv.MaxSeconds != 1.0 {
		t.Errorf("spmv stats = %+v", spmv)
	}
	// 1 bad of 3 at a 99% objective → burn (1/3)/0.01 ≈ 33.3 on every window.
	if b := spmv.Burn["5m"]; math.Abs(b-100.0/3) > 1e-6 {
		t.Errorf("spmv burn = %g, want ~33.3", b)
	}
	solve := eps[0]
	if solve.SLOTargetSeconds != 5 || solve.Errors != 1 {
		t.Errorf("solve stats = %+v", solve)
	}
}
