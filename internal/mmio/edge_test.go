package mmio

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestReadEdgeTable pins the entry parser on the inputs where a hand-rolled
// field splitter and integer fast path could drift from strings.Fields,
// strconv.Atoi and strconv.ParseFloat. Every expectation — each value, and
// each error's full text, line number included — is what the strings-based
// reader returned: the table passed there, unedited, before the parser moved
// to sc.Bytes().
func TestReadEdgeTable(t *testing.T) {
	const real = "%%MatrixMarket matrix coordinate real general\n"
	type entry struct {
		i, j int
		v    float64
	}
	for _, tc := range []struct {
		name    string
		src     string
		want    []entry // nil when wantErr is set
		wantErr string
	}{
		{"tabs", real + "2 2 2\n1\t1\t1.5\n\t2 \t 2\t-2\t\n", []entry{{0, 0, 1.5}, {1, 1, -2}}, ""},
		{"crlf", "%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 3\r\n", []entry{{0, 0, 1.5}, {1, 1, 3}}, ""},
		{"vertical tab and form feed", real + "2 2 1\n1\v2\f7\n", []entry{{0, 1, 7}}, ""},
		{"nbsp separates", real + "2 2 1\n1 2 7\n", []entry{{0, 1, 7}}, ""},
		{"leading plus", real + "3 3 2\n+1 +2 +4.5\n+3 3 1\n", []entry{{0, 1, 4.5}, {2, 2, 1}}, ""},
		{"leading zeros", real + "12 12 1\n007 0012 1\n", []entry{{6, 11, 1}}, ""},
		{"exponents", real + "2 2 4\n1 1 1e3\n1 2 -2.5E-2\n2 1 1d0\n", nil,
			`mmio: e.mtx:5: bad value "1d0": strconv.ParseFloat: parsing "1d0": invalid syntax`},
		{"exponents ok", real + "2 2 3\n1 1 1e3\n1 2 -2.5E-2\n2 2 4.9406564584124654e-324\n",
			[]entry{{0, 0, 1000}, {0, 1, -0.025}, {1, 1, 5e-324}}, ""},
		{"seventeen digits", real + "1 1 1\n1 1 0.10000000000000001\n", []entry{{0, 0, 0.1}}, ""},
		{"inf and nan spellings", real + "1 3 2\n1 1 Inf\n1 2 -infinity\n", []entry{{0, 0, math.Inf(1)}, {0, 1, math.Inf(-1)}}, ""},
		{"hex float", real + "1 1 1\n1 1 0x1p-2\n", []entry{{0, 0, 0.25}}, ""},
		{"underscore is not a digit", real + "20 20 1\n1_0 1 1\n", nil,
			`mmio: e.mtx:3: bad row index "1_0": strconv.Atoi: parsing "1_0": invalid syntax`},
		{"integer field", "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 1 -4\n", []entry{{0, 0, 3}, {1, 0, -4}}, ""},
		{"integer field takes a real", "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 2.5\n", []entry{{0, 0, 2.5}}, ""},
		{"pattern ignores a third field", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1 junk\n", []entry{{1, 0, 1}}, ""},
		{"pattern short", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n  2  \n", nil,
			`mmio: e.mtx:3: malformed entry "2" (want 2 fields)`},
		{"extra trailing fields", real + "2 2 1\n1 2 3.5 extra 9\n", []entry{{0, 1, 3.5}}, ""},
		{"comments and blanks between entries", real + "% c\n\n2 2 2\n\n% c\n1 1 1\n   \n%also\n  % indented\n2 2 2\n", []entry{{0, 0, 1}, {1, 1, 2}}, ""},
		{"short line", real + "2 2 2\n1 1 1\n \t1 2 \n", nil,
			`mmio: e.mtx:4: malformed entry "1 2" (want 3 fields)`},
		{"bad row index", real + "2 2 1\n1.0 1 1\n", nil,
			`mmio: e.mtx:3: bad row index "1.0": strconv.Atoi: parsing "1.0": invalid syntax`},
		{"bad column index", real + "2 2 1\n1 b 1\n", nil,
			`mmio: e.mtx:3: bad column index "b": strconv.Atoi: parsing "b": invalid syntax`},
		{"index overflows int", real + "2 2 1\n1 99999999999999999999 1\n", nil,
			`mmio: e.mtx:3: bad column index "99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"ten digit index", real + "2 2 1\n1 1234567890 1\n", nil,
			`mmio: e.mtx:3: entry (1,1234567890) outside 2x2`},
		{"negative index", real + "2 2 1\n-1 1 1\n", nil,
			`mmio: e.mtx:3: entry (-1,1) outside 2x2`},
		{"bare sign", real + "2 2 1\n+ 1 1\n", nil,
			`mmio: e.mtx:3: bad row index "+": strconv.Atoi: parsing "+": invalid syntax`},
		{"bad value", real + "2 2 2\n1 1 1\n\n2 2 1.2.3\n", nil,
			`mmio: e.mtx:5: bad value "1.2.3": strconv.ParseFloat: parsing "1.2.3": invalid syntax`},
		{"value out of range", real + "1 1 1\n1 1 1e999\n", nil,
			`mmio: e.mtx:3: bad value "1e999": strconv.ParseFloat: parsing "1e999": value out of range`},
		{"long value field", real + "1 1 1\n1 1 " + strings.Repeat("0", 60) + "1.5\n", []entry{{0, 0, 1.5}}, ""},
		{"invalid utf8 in a field", real + "2 2 1\n1 \xff 1\n", nil,
			`mmio: e.mtx:3: bad column index "\xff": strconv.Atoi: parsing "\xff": invalid syntax`},
		{"truncated after comments", real + "2 2 2\n1 1 1\n% end\n", nil,
			`mmio: e.mtx:4: expected 2 entries, got 1`},
		{"duplicates sum in file order", real + "1 1 3\n1 1 1e100\n1 1 1\n1 1 -1e100\n", []entry{{0, 0, 0}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ReadNamed(strings.NewReader(tc.src), "e.mtx")
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error %v, want %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.NNZ() != len(tc.want) {
				t.Fatalf("%d entries, want %d", m.NNZ(), len(tc.want))
			}
			for _, e := range tc.want {
				if got := m.At(e.i, e.j); got != e.v {
					t.Errorf("(%d,%d) = %v, want %v", e.i, e.j, got, e.v)
				}
			}
		})
	}
}

// TestWriteBytesMatchFmt: the appender-based writer emits exactly what
// "%d %d %.17g\n" did, on the values where formatters disagree if they ever do.
func TestWriteBytesMatchFmt(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 1e21, 1e20, 1e17, 12345678901234567, 1e-7,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 123456.789e3,
	}
	const cols = 1 << 20
	ptr := []int{0, len(vals)}
	col := make([]int32, len(vals))
	var want bytes.Buffer
	fmt.Fprintf(&want, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", 1, cols, len(vals))
	for k, v := range vals {
		col[k] = int32(k * (cols / len(vals)))
		fmt.Fprintf(&want, "%d %d %.17g\n", 1, col[k]+1, v)
	}
	m, err := sparse.NewCSR(1, cols, ptr, col, vals)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Write(&got, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Write produced\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}
