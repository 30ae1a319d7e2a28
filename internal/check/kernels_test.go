package check

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// asmKernelFormats are the formats whose SpMV has a hand-written assembly
// kernel variant (see internal/sparse/kernels_amd64.s).
var asmKernelFormats = []sparse.Format{sparse.FmtCSR, sparse.FmtELL, sparse.FmtSELL, sparse.FmtJDS, sparse.FmtDIA}

// TestAsmKernelsMatchGenericOnPathological is the differential oracle for
// the vectorized kernel layer: for every pathological shape, every format
// with an assembly kernel, GOMAXPROCS in {1, 2, max}, both the serial and
// parallel entry points, the assembly and the forced-generic fallback must
// each agree with the reference SpMV within the Higham error bound. FMA
// changes rounding relative to the scalar loops, so the comparison goes
// through the bound, never bitwise.
func TestAsmKernelsMatchGenericOnPathological(t *testing.T) {
	if !sparse.HasVectorKernels() {
		t.Skip("no assembly kernels on this host/build")
	}
	for _, c := range Pathological(3) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rows, cols := c.A.Dims()
			x := testVector(cols)
			ref := RefSpMV(c.A, x)
			bounds := SpMVBounds(c.A, x)
			for _, f := range asmKernelFormats {
				if !sparse.CanConvert(c.A, f, sparse.DefaultLimits) {
					continue
				}
				m, err := sparse.ConvertFromCSR(c.A, f, sparse.DefaultLimits)
				if err != nil {
					t.Fatalf("convert to %v: %v", f, err)
				}
				for _, procs := range DefaultWorkers() {
					oldProcs := runtime.GOMAXPROCS(procs)
					for _, forceGeneric := range []bool{false, true} {
						prev := sparse.ForceGenericKernels(forceGeneric)
						label := fmt.Sprintf("%v procs=%d generic=%v", f, procs, forceGeneric)
						y := make([]float64, rows)
						m.SpMV(y, x)
						if err := compareVec(label+" serial", ref, y, bounds); err != nil {
							t.Error(err)
						}
						for i := range y {
							y[i] = 0
						}
						m.SpMVParallel(y, x)
						if err := compareVec(label+" parallel", ref, y, bounds); err != nil {
							t.Error(err)
						}
						sparse.ForceGenericKernels(prev)
					}
					runtime.GOMAXPROCS(oldProcs)
				}
			}
		})
	}
}

// TestAsmKernelsLongRowSegmentation drives the CSR gather-dot kernel
// through its cache-blocked long-row path: a single row far past the
// segment size, so one SpMV spans several assembly calls whose partial
// sums must combine in fixed order.
func TestAsmKernelsLongRowSegmentation(t *testing.T) {
	if !sparse.HasVectorKernels() {
		t.Skip("no assembly kernels on this host/build")
	}
	const cols = 70001
	var col []int32
	var data []float64
	for j := 0; j < cols; j += 2 {
		col = append(col, int32(j))
		data = append(data, 1+float64(j%13)/7)
	}
	a, err := sparse.NewCSR(1, cols, []int{0, len(data)}, col, data)
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(cols)
	ref := RefSpMV(a, x)
	bounds := SpMVBounds(a, x)
	for _, forceGeneric := range []bool{false, true} {
		prev := sparse.ForceGenericKernels(forceGeneric)
		y := make([]float64, 1)
		a.SpMV(y, x)
		if err := compareVec(fmt.Sprintf("long-row generic=%v", forceGeneric), ref, y, bounds); err != nil {
			t.Error(err)
		}
		sparse.ForceGenericKernels(prev)
	}
}

// TestForceGenericKernelsToggles pins the dispatch switch contract: forcing
// flips the reported variant, and restoring the returned previous state
// lands back where it started.
func TestForceGenericKernelsToggles(t *testing.T) {
	startVariant := sparse.KernelVariant()
	prev := sparse.ForceGenericKernels(true)
	if sparse.KernelVariant() != "generic" {
		t.Errorf("forced generic but variant = %q", sparse.KernelVariant())
	}
	sparse.ForceGenericKernels(prev)
	if sparse.KernelVariant() != startVariant {
		t.Errorf("restore landed on %q, started at %q", sparse.KernelVariant(), startVariant)
	}
	if !sparse.HasVectorKernels() && startVariant != "generic" {
		t.Errorf("no asm kernels but variant = %q", startVariant)
	}
}
