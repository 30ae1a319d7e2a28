package floattext

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// jsonText is the oracle: encoding/json's text for f, or "" where it refuses
// (NaN, ±Inf).
func jsonText(f float64) string {
	b, err := json.Marshal(f)
	if err != nil {
		return ""
	}
	return string(b)
}

// sameText fails t unless AppendJSON prints f as encoding/json does, both
// after a dst with room to spare and after one without.
func sameText(t *testing.T, f float64) {
	t.Helper()
	want := jsonText(f)
	room := make([]byte, 3, 64)
	copy(room, "abc")
	for _, dst := range [][]byte{room, []byte("abc")} {
		got, ok := AppendJSON(dst, f)
		if ok != (want != "") || string(got) != "abc"+want {
			t.Fatalf("AppendJSON(%q, %v [%#016x]) = %q, %v; encoding/json %q", dst, f, math.Float64bits(f), got, ok, want)
		}
	}
}

// The deterministic writer sweep: the specials, 10^e and its two neighbours
// for every e a float64 reaches, the first, second and last mantissa of every
// exponent, and random bits, normal draws and short decimals, each with both
// signs.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.NaN(), math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		1e21, 1e-6, 1e-7, 1e20, 999999999999999999999, 0.000001, 0.0000009999999999999999, 1, 0.1, 0.5, 100, 1234567890123456789,
		9007199254740992, 9007199254740993, 4503599627370497, 2.2250738585072014e-308, 1.7976931348623157e308,
	} {
		sameText(t, f)
		sameText(t, -f)
	}
	for e := -325; e <= 309; e++ {
		f := math.Pow(10, float64(e))
		for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			sameText(t, g)
			sameText(t, -g)
		}
	}
	for be := uint64(0); be < 0x7FF; be++ {
		for _, m := range []uint64{0, 1, 2, 1<<52 - 1} {
			sameText(t, math.Float64frombits(be<<52|m))
			sameText(t, -math.Float64frombits(be<<52|m))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200_000; i++ {
		sameText(t, math.Float64frombits(rng.Uint64()))
		sameText(t, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(50)-25)))
		sameText(t, float64(rng.Int63n(1e7)-5e6)/math.Pow(10, float64(rng.Intn(12))))
	}
}

// BenchmarkAppendJSON prints the wire benchmark's values, normal draws, with
// floattext's writer and with strconv's shortest search in the form
// encoding/json picks (what internal/wire used before the writer).
func BenchmarkAppendJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = rng.NormFloat64()
	}
	for _, w := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{
		{"floattext", func(dst []byte, f float64) []byte {
			dst, _ = AppendJSON(dst, f)
			return dst
		}},
		{"strconv", func(dst []byte, f float64) []byte {
			format := byte('f')
			if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
				format = 'e'
			}
			return strconv.AppendFloat(dst, f, format, -1, 64)
		}},
	} {
		b.Run(w.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				for _, f := range vs {
					buf = w.append(buf[:0], f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/number")
		})
	}
}
