package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// jdsTestCSR builds the 4x5 example
//
//	row 0: (1, 1.0) (3, 2.0)
//	row 1: (0, 3.0) (2, 4.0) (4, 5.0)
//	row 2: (2, 6.0)
//	row 3: (0, 7.0) (1, 8.0) (2, 9.0) (4, 10.0)
func jdsTestCSR(t *testing.T) *CSR {
	t.Helper()
	a, err := NewCSR(4, 5,
		[]int{0, 2, 5, 6, 10},
		[]int32{1, 3, 0, 2, 4, 2, 0, 1, 2, 4},
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestJDSLayout(t *testing.T) {
	a := jdsTestCSR(t)
	m, err := NewJDSFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	// Row lengths 2,3,1,4 -> descending perm (stable): 3, 1, 0, 2.
	wantPerm := []int32{3, 1, 0, 2}
	for i, p := range wantPerm {
		if m.Perm[i] != p {
			t.Fatalf("Perm = %v, want %v", m.Perm, wantPerm)
		}
	}
	// Diagonal counts: 4, 3, 2, 1 (rows with >0, >1, >2, >3 entries).
	wantDiagPtr := []int{0, 4, 7, 9, 10}
	if len(m.DiagPtr) != len(wantDiagPtr) {
		t.Fatalf("DiagPtr = %v, want %v", m.DiagPtr, wantDiagPtr)
	}
	for j, p := range wantDiagPtr {
		if m.DiagPtr[j] != p {
			t.Fatalf("DiagPtr = %v, want %v", m.DiagPtr, wantDiagPtr)
		}
	}
	// Diagonal 0 is the first entry of rows 3,1,0,2; diagonal 1 of 3,1,0; ...
	wantCol := []int32{0, 0, 1, 2, 1, 2, 3, 2, 4, 4}
	wantData := []float64{7, 3, 1, 6, 8, 4, 2, 9, 5, 10}
	for k := range wantCol {
		if m.Col[k] != wantCol[k] || m.Data[k] != wantData[k] {
			t.Fatalf("entry %d = (%d, %g), want (%d, %g)", k, m.Col[k], m.Data[k], wantCol[k], wantData[k])
		}
	}
	if m.NumDiags() != 4 || m.NNZ() != 10 {
		t.Fatalf("NumDiags = %d NNZ = %d, want 4, 10", m.NumDiags(), m.NNZ())
	}
	// Re-validate through the raw constructor.
	if _, err := NewJDS(4, 5, m.Perm, m.DiagPtr, m.Col, m.Data); err != nil {
		t.Fatalf("NewJDS rejected its own layout: %v", err)
	}
}

func TestJDSSpMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(60)
		cols := 1 + rng.Intn(60)
		dense := make([]float64, rows*cols)
		ptr := make([]int, rows+1)
		var col []int32
		var data []float64
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.15 {
					v := rng.NormFloat64()
					dense[i*cols+j] = v
					col = append(col, int32(j))
					data = append(data, v)
				}
			}
			ptr[i+1] = len(data)
		}
		a, err := NewCSR(rows, cols, ptr, col, data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewJDSFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want[i] += dense[i*cols+j] * x[j]
			}
		}
		for _, par := range []bool{false, true} {
			y := make([]float64, rows)
			if par {
				m.SpMVParallel(y, x)
			} else {
				m.SpMV(y, x)
			}
			for i := range y {
				if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("trial %d par=%v: y[%d] = %g, want %g", trial, par, i, y[i], want[i])
				}
			}
		}
	}
}

func TestJDSRoundTrip(t *testing.T) {
	a := jdsTestCSR(t)
	m, err := NewJDSFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := m.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if rt.NNZ() != a.NNZ() {
		t.Fatalf("round trip nnz %d, want %d", rt.NNZ(), a.NNZ())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if rt.At(i, j) != a.At(i, j) {
				t.Fatalf("round trip (%d,%d) = %g, want %g", i, j, rt.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestNewJDSRejectsBadLayouts(t *testing.T) {
	a := jdsTestCSR(t)
	m, err := NewJDSFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	badPerm := append([]int32(nil), m.Perm...)
	badPerm[0] = badPerm[1]
	if _, err := NewJDS(4, 5, badPerm, m.DiagPtr, m.Col, m.Data); err == nil {
		t.Error("accepted duplicate perm entries")
	}
	badPtr := append([]int(nil), m.DiagPtr...)
	badPtr[1], badPtr[2] = badPtr[2], badPtr[1] // counts increase
	if _, err := NewJDS(4, 5, m.Perm, badPtr, m.Col, m.Data); err == nil {
		t.Error("accepted increasing diagonal counts")
	}
	badCol := append([]int32(nil), m.Col...)
	badCol[0] = 99
	if _, err := NewJDS(4, 5, m.Perm, m.DiagPtr, badCol, m.Data); err == nil {
		t.Error("accepted out-of-range column")
	}
}

func TestJDSEmptyAndEdgeShapes(t *testing.T) {
	for _, tc := range []struct{ rows, cols int }{{0, 0}, {5, 3}, {1, 8}, {8, 1}} {
		ptr := make([]int, tc.rows+1)
		a, err := NewCSR(tc.rows, tc.cols, ptr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewJDSFromCSR(a)
		if err != nil {
			t.Fatalf("%dx%d empty: %v", tc.rows, tc.cols, err)
		}
		y := make([]float64, tc.rows)
		x := make([]float64, tc.cols)
		m.SpMV(y, x)
		for i, v := range y {
			if v != 0 {
				t.Fatalf("%dx%d empty: y[%d] = %g", tc.rows, tc.cols, i, v)
			}
		}
	}
}

// TestDroppedJDSCollectedAtNextGC: once a product has parked its scratch
// vector in the pool, a JDS nobody references must be freed by the next
// collection. A pool embedded in the struct kept the whole layout reachable
// from the runtime's pool list through that collection, so a solve that
// ended on JDS raised the next heap goal by twice the layout.
func TestDroppedJDSCollectedAtNextGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		m, err := NewJDSFromCSR(jdsTestCSR(t))
		if err != nil {
			t.Fatal(err)
		}
		m.SpMV(make([]float64, 4), make([]float64, 5))
		runtime.SetFinalizer(m, func(*JDS) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped JDS survived a full collection")
	}
}
