package mmio

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// BenchmarkReadMatrixMarket reads what Write prints — "%d %d %.17g" entries,
// 360 000 of them, 17-digit values — and reports MB/s of text, the unit of
// the benchmark's mmio.read_mb_per_s probe.
func BenchmarkReadMatrixMarket(b *testing.B) {
	m, err := matgen.UniformRows(30_000, 30_000, 12, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := Write(&text, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
