package check

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/mmio"
	"repro/internal/sparse"
)

// fuzzDimLimit bounds the declared dimensions a fuzzed Matrix Market input
// may ask the parser to allocate row pointers for. The parser itself
// accepts anything up to the int32 index range (real SuiteSparse matrices
// have hundreds of millions of rows), so the fuzz driver — not the parser —
// must refuse headers that would legitimately allocate gigabytes.
const fuzzDimLimit = 1 << 16

// declaredDimsTooBig cheaply pre-scans an .mtx payload's size line. It
// errs on the side of false (an unparsable size line fails fast in the
// parser without big allocations).
func declaredDimsTooBig(data []byte) bool {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 {
		return false
	}
	for _, line := range lines[1:] { // lines[0] is the banner
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "%") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 {
			return false
		}
		for _, fld := range fields[:2] {
			if len(fld) > 5 { // > 5 digits ⇒ potentially ≥ 100000
				return true
			}
		}
		return false
	}
	return false
}

// FuzzMMIORead hammers the Matrix Market parser with arbitrary bytes. Every
// input must either fail with a *ParseError (never a panic, never an OOM —
// the declared-nnz preallocation cap is what this target guards) or parse
// into a CSR that survives a Write→Read round trip bit-for-bit.
func FuzzMMIORead(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.5\n2 2 -2.25\n3 3 4e-3\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1\n3 1 2.5\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n2 1 7\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer general\n% comment\n2 2 1\n2 2 -9\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n5 5 2000000000\n1 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"))
	f.Add([]byte("not a banner\n1 1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredDimsTooBig(data) {
			t.Skip("declared dimensions exceed the fuzz allocation budget")
		}
		a, err := mmio.Read(bytes.NewReader(data))
		if err != nil {
			var pe *mmio.ParseError
			if !errors.As(err, &pe) && !strings.HasPrefix(err.Error(), "mmio:") {
				t.Fatalf("non-mmio error type %T: %v", err, err)
			}
			return
		}
		// Parsed matrices round-trip through the writer bit-for-bit. NaN
		// values are legal .mtx content, so compare bit patterns, not ==.
		var buf bytes.Buffer
		if err := mmio.Write(&buf, a); err != nil {
			t.Fatalf("writing parsed matrix: %v", err)
		}
		b, err := mmio.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written matrix: %v\n%s", err, buf.Bytes())
		}
		if err := EqualCSR(a, b); err != nil {
			t.Fatalf("write/read round trip: %v", err)
		}
	})
}

// FuzzConvertRoundTrip decodes bytes into a small CSR and runs the full
// differential oracle over every implemented format at the ambient worker
// count.
func FuzzConvertRoundTrip(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := DecodeCSR(data)
		if a == nil {
			t.Skip("input too short to decode")
		}
		if _, err := Differential(a, Options{SpMMColumns: 2}); err != nil {
			r, c := a.Dims()
			t.Fatalf("%dx%d nnz %d: %v", r, c, a.NNZ(), err)
		}
	})
}

// FuzzSELLSlices focuses the oracle on SELL-C-σ: window sorting,
// permutation bookkeeping, and padded slice widths, and compares the layout
// with referenceSELLLayout. The decoded matrix is stacked 1 + copies%512
// times, so an input reaches the tall matrices whose σ climbs past the
// ladder's first rung; the checked-in power-law seeds (one long row, a few
// medium ones, a tail of short ones, stacked 256 and 401 times) do, and the
// equal-rows seed (32 rows of 4, stacked 301 times) reaches the rung the
// padding bound skips.
func FuzzSELLSlices(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed, uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, copies uint16) {
		a := DecodeCSR(data)
		if a == nil {
			t.Skip("input too short to decode")
		}
		a = stackRows(t, a, 1+int(copies)%512)
		if _, err := CheckFormat(a, sparse.FmtSELL, Options{}); err != nil {
			t.Fatal(err)
		}
		m, err := sparse.NewSELLFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		sameSELLLayout(t, a, m.SELLLayout)
	})
}

// stackRows returns a repeated copies times, each copy under the last.
func stackRows(t *testing.T, a *sparse.CSR, copies int) *sparse.CSR {
	t.Helper()
	rows, cols := a.Dims()
	ptr := make([]int, 1, rows*copies+1)
	var col []int32
	var data []float64
	for range copies {
		for i := 0; i < rows; i++ {
			col = append(col, a.Col[a.Ptr[i]:a.Ptr[i+1]]...)
			data = append(data, a.Data[a.Ptr[i]:a.Ptr[i+1]]...)
			ptr = append(ptr, len(col))
		}
	}
	s, err := sparse.NewCSR(rows*copies, cols, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addDecodeSeeds registers the shared DecodeCSR seed inputs.
func addDecodeSeeds(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed)
	}
}

// decodeSeeds are the shared DecodeCSR seed inputs: empty, 1×1, a dense
// block, a diagonal run, and a tall single column — enough for the mutator
// to reach every format's edge cases quickly.
func decodeSeeds() [][]byte {
	diag := []byte{0x1f, 0x1f}
	for i := byte(0); i < 32; i++ {
		diag = append(diag, i, i, 0x01, i)
	}
	tall := []byte{0x2f, 0x00}
	for i := byte(0); i < 48; i += 2 {
		tall = append(tall, i, 0, 0x00, i+1)
	}
	dense := []byte{0x07, 0x07}
	for r := byte(0); r < 8; r++ {
		for c := byte(0); c < 8; c++ {
			dense = append(dense, r, c, r+1, c+1)
		}
	}
	return [][]byte{{}, {0x00, 0x00}, {0x2f, 0x2f, 1, 1, 0x40, 0x00, 2, 2, 0xc0, 0x00}, diag, tall, dense}
}

// TestDecodeCSRProperties pins the decoder's contract directly: valid CSR,
// no stored zeros, bounded size, deterministic.
func TestDecodeCSRProperties(t *testing.T) {
	if DecodeCSR(nil) != nil || DecodeCSR([]byte{1}) != nil {
		t.Fatal("short inputs must decode to nil")
	}
	data := []byte{200, 200, 5, 5, 0, 0, 5, 5, 1, 0, 9, 9, 0xff, 0xff}
	a := DecodeCSR(data)
	if a == nil {
		t.Fatal("decode returned nil for valid input")
	}
	rows, cols := a.Dims()
	if rows < 1 || rows > decodeMaxRows || cols < 1 || cols > decodeMaxCols {
		t.Fatalf("dims %dx%d outside decode limits", rows, cols)
	}
	for k, v := range a.Data {
		if v == 0 {
			t.Fatalf("stored zero at %d", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %g at %d", v, k)
		}
	}
	b := DecodeCSR(data)
	if err := EqualCSR(a, b); err != nil {
		t.Fatalf("decode is not deterministic: %v", err)
	}
	// Duplicate (row,col) groups overwrite: the entry (5%rows, 5%cols)
	// appears twice above; the later value must win and appear once.
	if a.NNZ() != 2 {
		t.Fatalf("nnz %d, want 2 (duplicate overwritten)", a.NNZ())
	}
}
