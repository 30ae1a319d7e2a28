package matgen

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// goldenCase is one generated matrix whose structure fingerprint and value
// digest are pinned in testdata/generators.golden. spdOf is non-nil for the
// cases that end in makeSPDMargin: it rebuilds the matrix the margin was
// applied to, so the test can run the reference assemblers over the same
// triplets.
type goldenCase struct {
	name  string
	build func() (*sparse.CSR, error)
	spdOf func() (base *sparse.CSR, margin, floor float64, err error)
}

// goldenCases enumerates every family at three sizes, R-MAT, MakeDominant
// with and without a stored diagonal, MakeSPD, and the 96 entries of the
// default training corpus (ocs.TrainDefaultPredictors, ocsd -train and the
// benchmark all use this config).
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, fam := range AllFamilies {
		for _, size := range []int{700, 5000, 60000} {
			spec := Spec{Family: fam, Size: size, Degree: 9, Seed: int64(size) + int64(fam)}
			spec.Name = fmt.Sprintf("%s-%d", fam, size)
			cases = append(cases, specCase(spec))
		}
	}
	cases = append(cases,
		goldenCase{name: "rmat-14", build: func() (*sparse.CSR, error) {
			return RMAT(14, rand.New(rand.NewSource(14)))
		}},
		goldenCase{name: "dominant-banded-5000", build: func() (*sparse.CSR, error) {
			a, err := Banded(5000, 9, rand.New(rand.NewSource(5)))
			if err != nil {
				return nil, err
			}
			return MakeDominant(a, 0.02)
		}},
		// Random rows mostly lack a diagonal entry: MakeDominant inserts one.
		goldenCase{name: "dominant-random-5000", build: func() (*sparse.CSR, error) {
			a, err := Random(5000, 5000, 9, rand.New(rand.NewSource(6)))
			if err != nil {
				return nil, err
			}
			return MakeDominant(a, 0.02)
		}},
	)
	banded := func() (*sparse.CSR, error) { return Banded(5000, 9, rand.New(rand.NewSource(7))) }
	cases = append(cases, goldenCase{
		name: "makespd-banded-5000",
		build: func() (*sparse.CSR, error) {
			a, err := banded()
			if err != nil {
				return nil, err
			}
			return MakeSPD(a)
		},
		spdOf: func() (*sparse.CSR, float64, float64, error) {
			a, err := banded()
			return a, spdMargin, spdFloor, err
		},
	})
	corpus, err := Corpus(CorpusConfig{Count: 96, Seed: 42, MinSize: 500, MaxSize: 6000})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus {
		c := specCase(e.Spec)
		c.name = "corpus-" + e.Spec.Name
		m := e.Matrix
		c.build = func() (*sparse.CSR, error) { return m, nil }
		cases = append(cases, c)
	}
	return cases
}

func specCase(spec Spec) goldenCase {
	c := goldenCase{name: spec.Name, build: func() (*sparse.CSR, error) { return Generate(spec) }}
	if spec.Family == FamSPD {
		// Generate's FamSPD arm: Random from the spec's seed, then margin 1, floor 1.
		c.spdOf = func() (*sparse.CSR, float64, float64, error) {
			deg := spec.Degree
			if deg <= 0 {
				deg = 8
			}
			base, err := Random(spec.Size, spec.Size, deg, rand.New(rand.NewSource(spec.Seed)))
			return base, 1.0, 1.0, err
		}
	}
	return c
}

// goldenRow is one line of the table: "name fingerprint valuedigest", plus
// "was:<digest>" on a row whose value digest was re-recorded, keeping what
// the parent commit produced.
type goldenRow struct{ fp, vd, was string }

func readGolden(t *testing.T) map[string]goldenRow {
	t.Helper()
	f, err := os.Open("testdata/generators.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]goldenRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 3 || len(fields) > 4 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		r := goldenRow{fp: fields[1], vd: fields[2]}
		if len(fields) == 4 {
			r.was = strings.TrimPrefix(fields[3], "was:")
		}
		rows[fields[0]] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestGeneratorsBitIdenticalToRecorded pins what every generator produces.
// The table was recorded at the commit before sparse.CSRFromTriplets replaced
// the sort.Slice assembly (by this enumeration, run there), so it proves both
// sides of a benchmark pair, and every model trained before and after, saw the
// same matrices. The assembly change may move exactly one thing: a diagonal
// that makeSPDMargin builds from three addends used to be summed in whatever
// order an unstable sort left them and is now summed in input order. Rows it
// moved carry the parent's digest in a "was:" column; the test holds them to
// SPD-family cases, to bit-equality with a stable-sort reference, and to one
// ulp on the diagonal (and nothing elsewhere) against the unstable one.
func TestGeneratorsBitIdenticalToRecorded(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases(t)
	if len(golden) != len(cases) {
		t.Errorf("golden table has %d rows, the enumeration %d", len(golden), len(cases))
	}
	rerecorded := 0
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden row", c.name)
			continue
		}
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fp, vd := m.Fingerprint(), m.ValueDigest(); fp != want.fp || vd != want.vd {
			t.Errorf("%s: got %s %s, recorded %s %s", c.name, fp, vd, want.fp, want.vd)
		}
		if want.was != "" {
			rerecorded++
			if c.spdOf == nil {
				t.Errorf("%s: a re-recorded row on a case that never reaches makeSPDMargin", c.name)
			}
		}
		if c.spdOf == nil {
			continue
		}
		base, margin, floor, err := c.spdOf()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stable := refMakeSPD(t, base, margin, floor, true)
		if stable.Fingerprint() != m.Fingerprint() || stable.ValueDigest() != m.ValueDigest() {
			t.Errorf("%s: differs from the stable-order reference", c.name)
		}
		unstable := refMakeSPD(t, base, margin, floor, false)
		if unstable.Fingerprint() != m.Fingerprint() {
			t.Fatalf("%s: structure differs from the unstable-order reference", c.name)
		}
		if parent := unstable.ValueDigest(); want.was != "" && parent != want.was {
			// Not an error: sort.Slice's order is the toolchain's business.
			t.Logf("%s: unstable reference digests to %s, the parent recorded %s", c.name, parent, want.was)
		}
		for i := 0; i < len(m.Ptr)-1; i++ {
			for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
				got, old := m.Data[k], unstable.Data[k]
				if got == old {
					continue
				}
				if int(m.Col[k]) != i {
					t.Fatalf("%s: off-diagonal (%d,%d) moved: %v vs %v", c.name, i, m.Col[k], got, old)
				}
				if got != math.Nextafter(old, got) {
					t.Fatalf("%s: diagonal %d moved more than one ulp: %v vs %v", c.name, i, got, old)
				}
			}
		}
	}
	t.Logf("%d cases, %d value digests re-recorded", len(cases), rerecorded)
}

// refAssemble is the assembly NewCOO used to do — sort an index permutation
// by (row, col), sum runs — with the sort stable (duplicates sum in input
// order, what CSRFromTriplets specifies) or not (the parent's behaviour).
func refAssemble(t *testing.T, rows, cols int, ri, ci []int32, v []float64, stable bool) *sparse.CSR {
	t.Helper()
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if ri[ia] != ri[ib] {
			return ri[ia] < ri[ib]
		}
		return ci[ia] < ci[ib]
	}
	if stable {
		sort.SliceStable(idx, less)
	} else {
		sort.Slice(idx, less)
	}
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	lastRow := int32(-1)
	for _, i := range idx {
		if k := len(col); k > 0 && lastRow == ri[i] && col[k-1] == ci[i] {
			data[k-1] += v[i]
			continue
		}
		lastRow = ri[i]
		col = append(col, ci[i])
		data = append(data, v[i])
		ptr[ri[i]+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	m, err := sparse.NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// refMakeSPD is makeSPDMargin as it stood before the assembler changed: the
// halves of a and its transpose as triplets, assembled once to read the row
// sums, then re-assembled together with one more diagonal addend per row.
func refMakeSPD(t *testing.T, a *sparse.CSR, margin, floor float64, stable bool) *sparse.CSR {
	t.Helper()
	rows, cols := a.Dims()
	var ri, ci []int32
	var v []float64
	for _, m := range []*sparse.CSR{a, a.Transpose()} {
		for i := 0; i < rows; i++ {
			for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
				ri = append(ri, int32(i))
				ci = append(ci, m.Col[k])
				v = append(v, 0.5*m.Data[k])
			}
		}
	}
	sym := refAssemble(t, rows, cols, ri, ci, v, stable)
	for i := 0; i < rows; i++ {
		var rowAbs, diag float64
		for k := sym.Ptr[i]; k < sym.Ptr[i+1]; k++ {
			if int(sym.Col[k]) != i {
				rowAbs += abs(sym.Data[k])
			} else {
				diag = sym.Data[k]
			}
		}
		if add := rowAbs*(1+margin) + floor - diag; add > 0 {
			ri = append(ri, int32(i))
			ci = append(ci, int32(i))
			v = append(v, add)
		}
	}
	return refAssemble(t, rows, cols, ri, ci, v, stable)
}
