package sparse

import "testing"

// TestFingerprintGolden pins the hashed byte stream itself: the strings were
// recorded before Fingerprint and ValueDigest began writing whole blocks, on
// a matrix whose structure and value streams both span several of them, so a
// change to the serialization — which would silently orphan every dedup and
// conversion-cache key — fails here.
func TestFingerprintGolden(t *testing.T) {
	const rows, cols = 1500, 777
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		// 0 to 4 entries a row, columns ascending from a row-dependent start.
		for k, c := 0, (i*7)%cols; k < i%5 && c < cols; k, c = k+1, c+13+i%3 {
			col = append(col, int32(c))
			data = append(data, float64(i*31+k)/8-3)
		}
		ptr[i+1] = len(col)
	}
	a, err := NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	// The second matrix fits one block with room to spare: only the final
	// flush writes.
	for _, g := range []struct {
		name   string
		m      *CSR
		fp, vd string
	}{
		{"1500x777", a, "sha256:b8533cec38f5baee3916c894c456997e", "sha256:40860f47ab59c9a0d0bb27ef0527670c"},
		{"5x6", fpTestMatrix(t, 1), "sha256:43f124433a290086bb662a29b24a0736", "sha256:fd239096fa7119540931bf5e19d05267"},
	} {
		if got := g.m.Fingerprint(); got != g.fp {
			t.Errorf("%s: Fingerprint = %s, want %s", g.name, got, g.fp)
		}
		if got := g.m.ValueDigest(); got != g.vd {
			t.Errorf("%s: ValueDigest = %s, want %s", g.name, got, g.vd)
		}
	}
}
