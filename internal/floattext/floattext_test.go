package floattext

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// Four rows of Go's own table (strconv/eisel_lemire.go, detailedPowersOfTen,
// generated by wuffs' print-mpb-powers-of-10.go): both ends, the exact 10^0,
// and the 10^43 its doc comment works through.
func TestPowersOfTenMatchPublishedRows(t *testing.T) {
	for _, r := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0x0000000000000000, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[r.e-minExp10]; got != [2]uint64{r.lo, r.hi} {
			t.Errorf("1e%d: row {%#016x, %#016x}, published {%#016x, %#016x}", r.e, got[0], got[1], r.lo, r.hi)
		}
	}
	for i, row := range pow10 {
		if row[1]>>63 != 1 {
			t.Fatalf("1e%d: high word %#x is not normalised", i+minExp10, row[1])
		}
	}
}

// same fails t unless ReadJSON on s (a JSON number, end to end) and
// ParseFloat give strconv.ParseFloat's bits, and its verdict.
func same(t *testing.T, s string) {
	if msg := mismatch(s); msg != "" {
		t.Fatal(msg)
	}
}

func mismatch(s string) string {
	want, wantErr := strconv.ParseFloat(s, 64)
	got, err := ParseFloat([]byte(s))
	if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) ||
		err != nil && err.Error() != wantErr.Error() {
		return fmt.Sprintf("ParseFloat(%q) = %v (%016x), %v; strconv %v (%016x), %v",
			s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
	}
	f, end, st := ReadJSON([]byte(s), 0)
	if end != len(s) || (st == OK) != (wantErr == nil) || (st == OK && math.Float64bits(f) != math.Float64bits(want)) {
		return fmt.Sprintf("ReadJSON(%q) = %v, ends at %d of %d, status %d; strconv %v, %v", s, f, end, len(s), st, want, wantErr)
	}
	return ""
}

func TestReadJSONHardCases(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "0e0", "-0.0e-0", "1E+2", "1e-2", "0.000", "0.00000000000000001",
		"9007199254740993", "9007199254740992", "9007199254740991", "4503599627370496", "4503599627370497",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
		"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309", "-1e309",
		"1e-348", "1e-350", "1e348", "1e350", "1e347", "1e-347", "1e-400", "1e99999", "1e-99999", "0e99999",
		"1234567890123456789", "12345678901234567890", "1234567890123456789.5", "0.12345678901234567890123",
		"9999999999999999999", "99999999999999999999", "10000000000000000000", "18446744073709551615",
		"1000000000000000000000000000000", "100000000000000000000000000000000000000000000001",
		"7.1e10", "1e23", "8.533e+68", "4.1006e-184", "9.998e+307", "9.9538e-302", "6.47660115e-260",
		"7.4e+47", "5.92e+48", "7.35e+66", "8.32116e+55", "89255.0e-22", "0.1", "0.3",
		"123456789012345678901234567890e-10", "1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	} {
		same(t, s)
	}
	// An 800-digit mantissa that only strconv's decimal can settle: it sits
	// on the halfway point between two float64s, nudged by its last digit.
	half := "1.00000000000000011102230246251565404236316680908203125" + strings.Repeat("0", 760)
	same(t, half)
	same(t, half+"1")
	same(t, strings.Repeat("9", 800))
	same(t, "0."+strings.Repeat("0", 330)+"1")
}

// The deterministic differential sweep: shortest and %.17g text of random
// bit patterns (subnormals among them), random digit strings of every
// length up to 25 with random exponents, and the 19/20-digit boundary.
func TestReadJSONMatchesStrconvSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24000; i++ {
		var f float64
		switch i % 8 {
		case 0, 4:
			f = math.Float64frombits(rng.Uint64())
		case 1, 5, 7:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		case 2:
			// Subnormal: every conversion of one takes strconv's slow path,
			// at a few microseconds each.
			f = math.Float64frombits(rng.Uint64() >> 12)
		case 3, 6:
			f = float64(rng.Int63n(1<<53)) * math.Pow(2, float64(rng.Intn(200)-100))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		same(t, strconv.FormatFloat(f, 'g', -1, 64))
		same(t, fmt.Sprintf("%.17g", f))
		same(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))

		var sb strings.Builder
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		nd := 1 + rng.Intn(25)
		dot := rng.Intn(nd + 1)
		if dot == 0 {
			sb.WriteString("0.")
			for z := rng.Intn(4); z > 0; z-- {
				sb.WriteByte('0')
			}
		}
		for d := 0; d < nd; d++ {
			if d == dot && dot > 0 && dot < nd {
				sb.WriteByte('.')
			}
			c := byte('0' + rng.Intn(10))
			if d == 0 && dot != 0 && c == '0' {
				c = '1'
			}
			sb.WriteByte(c)
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "e%d", rng.Intn(700)-350)
		}
		same(t, sb.String())
	}
}

func TestReadJSONSyntax(t *testing.T) {
	for _, c := range []struct {
		in  string
		end int
		st  Status
	}{
		{"", 0, BadInteger}, {"-", 1, BadInteger}, {"-a", 1, BadInteger}, {"+1", 0, BadInteger},
		{".5", 0, BadInteger}, {"1.", 2, BadFraction}, {"1.e3", 2, BadFraction}, {"0.x", 2, BadFraction},
		{"1e", 2, BadExponent}, {"1e+", 3, BadExponent}, {"1E-x", 3, BadExponent},
		{"01", 1, OK}, {"1.5x", 3, OK}, {"-0.0,", 4, OK}, {"123456789012 ", 12, OK},
		{"1e400", 5, OutOfRange}, {"-1e400]", 6, OutOfRange},
	} {
		if _, end, st := ReadJSON([]byte(c.in), 0); end != c.end || st != c.st {
			t.Errorf("ReadJSON(%q) ends at %d with status %d, want %d and %d", c.in, end, st, c.end, c.st)
		}
	}
	// ParseFloat keeps strconv's wider grammar and its errors.
	for _, s := range []string{"+1", "01", ".5", "5.", "inf", "-Infinity", "NaN", "0x1p-2", "0x_1p0", "1_0", "1e", "", "-", "1.5x", " 1"} {
		want, wantErr := strconv.ParseFloat(s, 64)
		got, err := ParseFloat([]byte(s))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("ParseFloat(%q) = %v, %v; strconv %v, %v", s, got, err, want, wantErr)
		}
	}
}

func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		var b [8]byte
		all := true
		for j := range b {
			b[j] = byte('0' + rng.Intn(10))
			if i%3 == 0 && rng.Intn(8) == 0 {
				b[j] = byte(rng.Intn(256))
			}
			all = all && '0' <= b[j] && b[j] <= '9'
		}
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if eightDigits(v) != all {
			t.Fatalf("eightDigits(%q) = %v", b[:], !all)
		}
		if all {
			want, _ := strconv.ParseUint(string(b[:]), 10, 64)
			if got := eightValue(v); got != want {
				t.Fatalf("eightValue(%q) = %d", b[:], got)
			}
		}
	}
}
