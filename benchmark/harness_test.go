package main

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestCheckProcsRefusesOversubscription(t *testing.T) {
	if err := checkProcs(4, 2); err == nil {
		t.Error("GOMAXPROCS 4 on 2 CPUs was accepted")
	}
	for _, p := range []int{1, 2} {
		if err := checkProcs(p, 2); err != nil {
			t.Errorf("GOMAXPROCS %d on 2 CPUs refused: %v", p, err)
		}
	}
}

func TestClampConns(t *testing.T) {
	for _, c := range []struct{ want, nproc, got int }{{8, 2, 2}, {2, 2, 2}, {1, 4, 1}, {0, 4, 1}} {
		if g := clampConns(c.want, c.nproc); g != c.got {
			t.Errorf("clampConns(%d, %d) = %d, want %d", c.want, c.nproc, g, c.got)
		}
	}
	if cl := (&bench{nproc: 2}).newClient(16); cl.conns != 2 {
		t.Errorf("a client asked for 16 connections on 2 CPUs got %d", cl.conns)
	}
}

func TestPercentileIsExactNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if g := percentile(v, c.p); g != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, g, c.want)
		}
	}
	if g := percentile([]float64{1, 2, 3, 4, 5}, 50); g != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", g)
	}
	if g := percentile(nil, 50); g != 0 {
		t.Errorf("p50 of nothing = %v, want 0", g)
	}
	if g := median([]float64{4, 1, 3, 2}); g != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", g)
	}
}

func TestSamplesBeyondCountsAboveThePercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{10000, 99.9, 10}, {1000, 99, 10}, {999, 99, 9}, {264, 95, 13}, {200, 95, 10}, {40, 75, 10}, {39, 75, 9}, {3, 100, 0}} {
		if g := samplesBeyond(c.n, c.p); g != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, g, c.beyond)
		}
	}
}

// planShape is what must repeat for a seed: which request goes out when.
func planShape(ops []*op) []string {
	s := make([]string, len(ops))
	for i, o := range ops {
		s[i] = kindNames[o.kind] + "/" + o.sub + "/" + o.method
	}
	return s
}

func TestOpenLoopPlanIsDeterministicForASeed(t *testing.T) {
	bases := []*tenantBase{
		{name: "a", sub: "generate", solve: []byte("{}"), id: "m1", spmv: []vecCase{{}, {}}},
		{name: "b", sub: "mtx", solve: []byte("{}"), id: "m2", spmv: []vecCase{{}, {}}},
		{name: "c", sub: "generate", id: "m3", spmv: []vecCase{{}, {}}},
		{name: "d", sub: "mtx", solve: []byte("{}"), id: "m4", spmv: []vecCase{{}, {}}},
	}
	plan := func(seed int64) []string {
		return planShape(tenantPlan(rand.New(rand.NewSource(seed)), 600, bases, "http://x"))
	}
	a, b := plan(7), plan(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("two plans from seed 7 differ")
	}
	if reflect.DeepEqual(a, plan(8)) {
		t.Error("seeds 7 and 8 give the same plan")
	}
	count := map[string]int{}
	for _, s := range a {
		count[strings.SplitN(s, "/", 2)[0]]++
	}
	for _, k := range []string{"register", "spmv", "solve", "delete"} {
		if count[k] == 0 {
			t.Errorf("a 600-operation plan has no %s", k)
		}
	}
	if !reflect.DeepEqual(fixedSchedule(5, 10), fixedSchedule(5, 10)) || fixedSchedule(5, 10)[4].Milliseconds() != 400 {
		t.Error("fixedSchedule(5, 10) is not 0, 100, ... 400 ms")
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},    // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // sticks out
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35}, // grandchild: b's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	rows := whereTimeGoes(spans)
	var pct float64
	for _, r := range rows {
		if r.Name == "root" || r.Name == "a" || r.Name == "b" || r.Name == "leaf" {
			pct += r.SelfPct
		}
	}
	// root 50 + a 20 + b 20 + leaf 10 = the root's 100; c's 30 includes the
	// 20 it spends outside its parent.
	if math.Abs(pct-100) > 1e-9 {
		t.Errorf("self shares inside the root add to %v%%, want 100", pct)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var (
		r  *recorder
		r0 time.Time
	)
	if id := r.add("x", "", 0, r0, r0); id != 0 || len(r.snapshot()) != 0 || r.reserve("x", "", 0) != 0 {
		t.Error("a nil recorder recorded something")
	}
	r.finish(0, r0, r0)
}

func TestEveryNameFitsTheContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the contract", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit %q or direction %q outside the contract", d.Name, d.Unit, d.Better)
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
}

func TestMetricSetRejectsUndeclaredNames(t *testing.T) {
	m := newMetricSet(endToEnd)
	m.set("setup_s", 1.5)
	if got := m.emit(); len(got) != len(endToEnd) || got["setup_s"].Value != 1.5 || got["setup_s"].Unit != "s" {
		t.Errorf("emit() = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	m.set("made_up", 1)
}

func TestNormalizeArgsAcceptsDriverAndIssueForms(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "serve_hot", "--seed", "3", "--seconds", "12", "--trace", "1"})
	want := []string{"--workload", "serve_hot", "--seed", "3", "--seconds", "12", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver form: %v", got)
	}
	if got := normalizeArgs([]string{"-trace", "-seed", "2"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "2"}) {
		t.Errorf("bare -trace: %v", got)
	}
}

func TestParseStatusKB(t *testing.T) {
	kb, err := parseStatusKB("Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n", "VmHWM:")
	if err != nil || kb != 123456 {
		t.Errorf("parseStatusKB = %d, %v", kb, err)
	}
	if _, err := parseStatusKB("Name:\tx\n", "VmHWM:"); err == nil {
		t.Error("a status without VmHWM parsed")
	}
}

func TestCompareSetsFlagsABreachEitherWay(t *testing.T) {
	set := func(tail float64, failed int) *resultSet {
		m := map[string]metric{"setup_s": {10, "s"}, "op_tail_x": {tail, "x"},
			"speedup_vs_csr": {1.1, "x"}, "slo_ok_share": {1, "share"}, "peak_rss_mb": {200, "MB"}}
		return &resultSet{Outcomes: []*outcome{{Workload: "w", Correct: failed == 0, Failed: failed, Metrics: m}}}
	}
	var out bytes.Buffer
	if rc := compareSets(set(100, 0), set(104, 0), &out); rc != 0 {
		t.Errorf("a 4%% difference breached:\n%s", out.String())
	}
	for _, pair := range [][2]*resultSet{{set(100, 0), set(140, 0)}, {set(140, 0), set(100, 0)}, {set(100, 0), set(100, 1)}} {
		if rc := compareSets(pair[0], pair[1], &out); rc == 0 {
			t.Error("a 40% difference or a failed operation passed")
		}
	}
	if w := worsening(100, 80, "higher"); w != 0.2 {
		t.Errorf("throughput 100 -> 80 worsens by %v, want 0.2", w)
	}
}
