package arima

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// goldenSeries is one progress prefix the stage-1 table is recorded over.
type goldenSeries struct {
	name     string
	progress []float64
}

// goldenTols are the tolerances every series is predicted against.
var goldenTols = []float64{1e-6, 1e-8, 1e-12}

// goldenPrefixes enumerates the recorded series: geometric decay (or growth)
// at six rates and five prefix lengths — 3 and 9 fall back to the two-point
// extrapolation, 10 is the shortest prefix the ARIMA fit takes — and three
// shapes the fit has to bend around, at three lengths each.
func goldenPrefixes() []goldenSeries {
	var out []goldenSeries
	for _, rate := range []float64{0.3, 0.5, 0.9, 0.99, 1.0, 1.3} {
		for _, k := range []int{3, 9, 10, 15, 30} {
			p := make([]float64, k)
			r := 1.0
			for i := range p {
				r *= rate
				p[i] = r
			}
			out = append(out, goldenSeries{fmt.Sprintf("geo-%g-k%d", rate, k), p})
		}
	}
	for _, k := range []int{10, 15, 30} {
		// Flat for eight iterations, then a 0.3x drop per iteration.
		plateau := make([]float64, k)
		for i := range plateau {
			plateau[i] = 1
			if i >= 8 {
				plateau[i] = math.Pow(0.3, float64(i-7))
			}
		}
		// A 0.8x decay under multiplicative log-normal noise.
		rng := rand.New(rand.NewSource(int64(k)))
		noisy := make([]float64, k)
		r := 1.0
		for i := range noisy {
			r *= 0.8
			noisy[i] = r * math.Exp(0.3*rng.NormFloat64())
		}
		// Three iterations per decade.
		stairs := make([]float64, k)
		for i := range stairs {
			stairs[i] = math.Pow(10, -float64(i/3))
		}
		out = append(out,
			goldenSeries{fmt.Sprintf("plateau-k%d", k), plateau},
			goldenSeries{fmt.Sprintf("noisy-k%d", k), noisy},
			goldenSeries{fmt.Sprintf("staircase-k%d", k), stairs})
	}
	return out
}

// goldenFitted names the series whose fitted coefficients and 20-step
// forecast of the log series are recorded bit for bit.
var goldenFitted = []string{"geo-0.5-k15", "geo-0.9-k30", "plateau-k15", "noisy-k30", "staircase-k15"}

// goldenLines renders the table testdata/tripcount.golden holds: one
// "predict <series> <tol> <total>" line per series and tolerance, then one
// "fit <series> phi=<bits> intercept=<bits> forecast=<bits>,..." line per
// fitted series, float64 bits in hex.
func goldenLines(t *testing.T) []string {
	t.Helper()
	tc := DefaultTripcount()
	series := goldenPrefixes()
	byName := map[string][]float64{}
	var lines []string
	for _, s := range series {
		byName[s.name] = s.progress
		for _, tol := range goldenTols {
			total, err := tc.PredictTotal(s.progress, tol)
			if err != nil {
				t.Fatalf("%s tol %g: %v", s.name, tol, err)
			}
			lines = append(lines, fmt.Sprintf("predict %s %g %d", s.name, tol, total))
		}
	}
	for _, name := range goldenFitted {
		progress := byName[name]
		logs := make([]float64, len(progress))
		for i, v := range progress {
			logs[i] = math.Log(v)
		}
		m, err := Fit(logs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fc := make([]string, 0, 20)
		for _, v := range m.Forecast(20) {
			fc = append(fc, fmt.Sprintf("%016x", math.Float64bits(v)))
		}
		lines = append(lines, fmt.Sprintf("fit %s phi=%016x intercept=%016x forecast=%s",
			name, math.Float64bits(m.Phi), math.Float64bits(m.Intercept), strings.Join(fc, ",")))
	}
	return lines
}

func readTripcountGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("testdata/tripcount.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<16)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestTripcountBitIdenticalToRecorded pins stage 1: every PredictTotal over
// the grid and the fitted model of five series, bit for bit. The table was
// recorded, by this enumeration, at the commit before Fit was cut down from a
// general ARIMA(p,d,q) fitter to the (1,1,0) order stage 1 runs.
func TestTripcountBitIdenticalToRecorded(t *testing.T) {
	want := readTripcountGolden(t)
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Errorf("golden table has %d lines, the enumeration %d", len(want), len(got))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
