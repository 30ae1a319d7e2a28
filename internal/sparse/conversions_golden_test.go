package sparse_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

const conversionsGolden = "testdata/conversions.golden"

var recordConversions = flag.Bool("record-conversions", false, "rewrite "+conversionsGolden+" from the current conversions")

// goldenMatrix is one input of the conversion table.
type goldenMatrix struct {
	name string
	a    *sparse.CSR
}

// conversionInputs enumerates the matrices the table covers: every matgen
// family at a serial and a parallel size, an R-MAT graph, and hand-built
// shapes the generators never emit — explicit zeros, empty rows, rows far
// longer than the assembler's insertion cutoff, rectangular and degenerate
// matrices.
func conversionInputs(t *testing.T) []goldenMatrix {
	t.Helper()
	var in []goldenMatrix
	add := func(name string, a *sparse.CSR, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in = append(in, goldenMatrix{name, a})
	}
	for _, fam := range matgen.AllFamilies {
		for _, size := range []int{700, 5000} {
			a, err := matgen.Generate(matgen.Spec{Family: fam, Size: size, Degree: 9, Seed: int64(size) + int64(fam)})
			add(fmt.Sprintf("%s-%d", fam, size), a, err)
		}
	}
	a, err := matgen.RMAT(matgen.DefaultRMATConfig(11), rand.New(rand.NewSource(11)))
	add("rmat-11", a, err)

	rng := rand.New(rand.NewSource(28))
	a, err = handBuilt(rng, 400, 400, func(i int) int { return 3 + i%5 }, 3)
	add("explicit-zeros-400", a, err)
	a, err = bandedZeros(500, 3, 4)
	add("banded-zeros-500", a, err)
	a, err = handBuilt(rng, 600, 600, func(i int) int { return (i % 2) * (1 + i%9) }, 0)
	add("empty-rows-600", a, err)
	a, err = handBuilt(rng, 900, 900, func(i int) int {
		if i%37 == 0 {
			return 40 + i%300
		}
		return 2 + i%6
	}, 0)
	add("long-rows-900", a, err)
	a, err = handBuilt(rng, 150, 2500, func(i int) int { return 1 + (i*7)%60 }, 0)
	add("wide-150x2500", a, err)
	a, err = handBuilt(rng, 2500, 150, func(i int) int { return i % 12 }, 5)
	add("tall-2500x150", a, err)
	a, err = handBuilt(rng, 1, 3000, func(int) int { return 1200 }, 0)
	add("one-row-1x3000", a, err)
	a, err = handBuilt(rng, 7, 5, func(int) int { return 0 }, 0)
	add("no-entries-7x5", a, err)
	a, err = handBuilt(rng, 0, 0, nil, 0)
	add("empty-0x0", a, err)
	return in
}

// handBuilt builds a rows x cols CSR whose row i holds min(length(i), cols)
// distinct random columns in ascending order; with zeroEvery > 0, every
// zeroEvery-th stored value is an explicit zero.
func handBuilt(rng *rand.Rand, rows, cols int, length func(int) int, zeroEvery int) (*sparse.CSR, error) {
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		n := min(length(i), cols)
		picked := rng.Perm(cols)[:n]
		slices.Sort(picked)
		for _, c := range picked {
			v := float64(rng.Intn(2000)-1000) / 64
			if zeroEvery > 0 && len(data)%zeroEvery == 0 {
				v = 0
			}
			col = append(col, int32(c))
			data = append(data, v)
		}
		ptr[i+1] = len(col)
	}
	return sparse.NewCSR(rows, cols, ptr, col, data)
}

// bandedZeros builds a rows x rows band of half-width b in which every
// zeroEvery-th stored value is an explicit zero, which DIA stores but does
// not count.
func bandedZeros(rows, b, zeroEvery int) (*sparse.CSR, error) {
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		for j := max(i-b, 0); j <= min(i+b, rows-1); j++ {
			v := float64(i-j) + 0.5
			if len(data)%zeroEvery == 0 {
				v = 0
			}
			col = append(col, int32(j))
			data = append(data, v)
		}
		ptr[i+1] = len(col)
	}
	return sparse.NewCSR(rows, rows, ptr, col, data)
}

// digest is the first 16 bytes of the sha256 of an array's little-endian
// bytes (ints as int64, floats as their IEEE bits).
func digest[T int | int32 | float64](xs []T) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		switch v := any(x).(type) {
		case int:
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		case int32:
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		case float64:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// conversionLines renders one table line per menu format for a: the stored
// nonzero count, the layout scalars and a digest of every array, or
// "rejected" where the fill limits refuse the format.
func conversionLines(t *testing.T, g goldenMatrix) []string {
	t.Helper()
	var lines []string
	emit := func(format string, fields ...string) {
		lines = append(lines, g.name+" "+format+" "+strings.Join(fields, " "))
	}
	for _, f := range []sparse.Format{sparse.FmtDIA, sparse.FmtELL, sparse.FmtHYB, sparse.FmtSELL, sparse.FmtJDS} {
		m, err := sparse.ConvertFromCSR(g.a, f, sparse.DefaultLimits)
		if err != nil {
			if f != sparse.FmtDIA && f != sparse.FmtELL {
				t.Fatalf("%s %v: %v", g.name, f, err)
			}
			emit(f.String(), "rejected")
			continue
		}
		nnz := fmt.Sprintf("nnz=%d", m.NNZ())
		switch m := m.(type) {
		case *sparse.DIA:
			emit("DIA", nnz, "offsets="+digest(m.Offsets), "data="+digest(m.Data))
		case *sparse.ELL:
			emit("ELL", nnz, fmt.Sprintf("width=%d", m.Width), "cols="+digest(m.Cols), "data="+digest(m.Data))
		case *sparse.HYB:
			emit("HYB", nnz, fmt.Sprintf("width=%d", m.EllWidth()), fmt.Sprintf("ellnnz=%d", m.Ell.NNZ()),
				fmt.Sprintf("overflow=%d", m.Coo.NNZ()),
				"ell.cols="+digest(m.Ell.Cols), "ell.data="+digest(m.Ell.Data),
				"coo.row="+digest(m.Coo.Row), "coo.col="+digest(m.Coo.Col), "coo.data="+digest(m.Coo.Data))
		case *sparse.SELL:
			emit("SELL", nnz, "perm="+digest(m.Perm), "slicewidth="+digest(m.SliceWidth),
				"sliceptr="+digest(m.SlicePtr), "cols="+digest(m.Cols), "data="+digest(m.Data))
		case *sparse.JDS:
			emit("JDS", nnz, "perm="+digest(m.Perm), "diagptr="+digest(m.DiagPtr),
				"col="+digest(m.Col), "data="+digest(m.Data))
		default:
			t.Fatalf("%s: ConvertFromCSR(%v) returned %T", g.name, f, m)
		}
	}
	return lines
}

// TestConversionsBitIdenticalToRecorded pins what CSR -> {DIA, ELL, HYB,
// SELL, JDS} writes, array by array, at one worker and at four. The table
// was recorded before the conversions fused their validation into the fill
// pass, so it proves the single-pass layouts equal the two-pass ones.
// Re-record with -record-conversions only for an intended layout change.
func TestConversionsBitIdenticalToRecorded(t *testing.T) {
	inputs := conversionInputs(t)
	var want []string
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		var got []string
		for _, g := range inputs {
			got = append(got, conversionLines(t, g)...)
		}
		runtime.GOMAXPROCS(old)
		if *recordConversions {
			if procs == 1 {
				writeConversionsGolden(t, got)
			}
		}
		if want == nil {
			want = readConversionsGolden(t)
			if len(want) != len(got) {
				t.Errorf("golden table has %d lines, the enumeration %d", len(want), len(got))
			}
		}
		for i := 0; i < min(len(want), len(got)); i++ {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d:\n got  %s\n want %s", procs, got[i], want[i])
			}
		}
	}
}

func writeConversionsGolden(t *testing.T, lines []string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# matrix format nnz=<NNZ()> [layout scalars] <array>=<first 16 bytes of sha256, little-endian>\n")
	b.WriteString("# Recorded by conversionInputs (conversions_golden_test.go) before the\n")
	b.WriteString("# conversions fused their validation into the fill pass.\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(conversionsGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readConversionsGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(conversionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
