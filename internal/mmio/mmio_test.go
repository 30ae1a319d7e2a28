package mmio

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestReadGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 5
1 1 1.5
1 4 2.0
2 2 -3.25
3 1 4
3 3 0.5
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := m.Dims()
	if rows != 3 || cols != 4 || m.NNZ() != 5 {
		t.Fatalf("dims %dx%d nnz %d", rows, cols, m.NNZ())
	}
	if got := m.At(0, 3); got != 2.0 {
		t.Errorf("At(0,3) = %g", got)
	}
	if got := m.At(2, 0); got != 4 {
		t.Errorf("At(2,0) = %g", got)
	}
}

func TestReadSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2
2 1 -1
3 3 5
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 { // (2,1) mirrored to (1,2); diagonals not duplicated
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Error("symmetric mirror missing")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != -3 {
		t.Errorf("skew mirror wrong: %g, %g", m.At(1, 0), m.At(0, 1))
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Error("pattern entries not set to 1")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad banner":     "%%NotMM matrix coordinate real general\n1 1 0\n",
		"array layout":   "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"complex field":  "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":   "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"missing size":   "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"truncated":      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"out of range":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"zero index":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
		"short entry":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"bad size line":  "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n",
		"vector object":  "%%MatrixMarket vector coordinate real general\n2 1\n1 1\n",
		"negative sizes": "%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: Read accepted invalid input", name)
		}
	}
}

func TestParseErrorsCarryNameAndLine(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantLine int
		wantSub  string
	}{
		{"bad banner", "%%NotMM matrix coordinate real general\n1 1 0\n", 1, "banner"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", 1, "field"},
		{"bad size line", "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n", 2, "size line"},
		{"size after comments", "%%MatrixMarket matrix coordinate real general\n% one\n% two\nnope\n", 4, "size line"},
		{"bad row index", "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n", 3, "row index"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 abc\n", 4, "value"},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n", 3, "outside"},
		{"short entry", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n", 3, "entry"},
		{"truncated", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n", 3, "expected 3 entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadNamed(strings.NewReader(tc.src), "bad.mtx")
			if err == nil {
				t.Fatal("accepted invalid input")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *ParseError: %v", err, err)
			}
			if pe.Name != "bad.mtx" {
				t.Errorf("error lost the input name: %v", err)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("error at line %d, want %d: %v", pe.Line, tc.wantLine, err)
			}
			if !strings.Contains(err.Error(), "bad.mtx:"+strconv.Itoa(tc.wantLine)) {
				t.Errorf("message %q does not render name:line", err.Error())
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("message %q does not mention %q", err.Error(), tc.wantSub)
			}
		})
	}
}

func TestParseErrorUnwrapsCause(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nope\n"
	_, err := Read(strings.NewReader(src))
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Errorf("strconv cause not reachable through %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := matgen.Random(40, 30, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sparse.EqualValues(m, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("write/read round trip changed values")
	}
}

func TestWriteNonCSRInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	csr, err := matgen.Random(10, 10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sell, err := sparse.NewSELLFromCSR(csr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, sell); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sparse.EqualValues(csr, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("SELL write round trip changed values")
	}
}

func TestReadCaseInsensitiveBanner(t *testing.T) {
	src := "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 7\n"
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 7 {
		t.Error("case-insensitive banner parse failed")
	}
}

func TestQuickReadNeverPanics(t *testing.T) {
	// Robustness: arbitrary byte soup must produce an error or a valid
	// matrix, never a panic.
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(99))}
	prop := func(junk []byte, header bool) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		input := junk
		if header {
			input = append([]byte("%%MatrixMarket matrix coordinate real general\n"), junk...)
		}
		m, err := Read(bytes.NewReader(input))
		if err == nil && m == nil {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
