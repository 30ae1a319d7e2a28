package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// The benchmark's own /spmm body: k = 4 vectors of 78 400 random float64s,
// 5.9 MB of text. Decode and encode report ns/number, ns/op over 313 600.
const (
	benchK    = 4
	benchCols = 78_400
)

type panelRequest struct {
	X [][]float64 `json:"x"`
}

type panelResponse struct {
	Y      [][]float64 `json:"y"`
	K      int         `json:"k,omitempty"`
	Format string      `json:"format"`
}

func benchPanel() [][]float64 {
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, benchK)
	for i := range xs {
		xs[i] = make([]float64, benchCols)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	return xs
}

func benchBody(b *testing.B) []byte {
	body, err := AppendRequest(nil, benchPanel(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	return body
}

// loop times op in the steady state: one untimed call first, so that the
// pools are warm and B/op is what a serving process allocates per request.
func loop(b *testing.B, op func()) {
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// perNumber reports the time per number of the panel.
func perNumber(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchK*benchCols), "ns/number")
}

// BenchmarkDecodeWire is the shard's decode of a /spmm body: scan, then every
// vector converted straight into its column of the pooled operand panel.
func BenchmarkDecodeWire(b *testing.B) {
	body := benchBody(b)
	loop(b, func() {
		lay, err := ScanRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		k := len(lay.Vectors)
		xp := GetVec(k * benchCols)
		for i, sp := range lay.Vectors {
			if err := DecodeVector(body[sp.Lo:sp.Hi], (*xp)[i:], k); err != nil {
				b.Fatal(err)
			}
		}
		PutVec(xp)
	})
	perNumber(b)
}

func BenchmarkDecodeEncodingJSON(b *testing.B) {
	body := benchBody(b)
	loop(b, func() {
		var req panelRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkScanWire(b *testing.B) {
	body := benchBody(b)
	loop(b, func() {
		if _, err := ScanRequest(body); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEncodeWire(b *testing.B) {
	ys := benchPanel()
	body := benchBody(b)
	loop(b, func() {
		p := GetBuf(len(body))
		out, err := AppendReply(*p, ys, 1, Tail{K: benchK, Format: "csr"})
		if err != nil {
			b.Fatal(err)
		}
		*p = out
		PutBuf(p)
	})
	perNumber(b)
}

func BenchmarkEncodeEncodingJSON(b *testing.B) {
	ys := benchPanel()
	benchBody(b)
	loop(b, func() {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(panelResponse{Y: ys, K: benchK, Format: "csr"}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSpliceWire is the router's share of a two-block /spmm reply: scan
// both block replies, splice them.
func BenchmarkSpliceWire(b *testing.B) {
	half := benchPanel()
	for i := range half {
		half[i] = half[i][:benchCols/2]
	}
	reply, err := AppendReply(nil, half, 1, Tail{K: benchK, Format: "csr"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * int64(len(reply)))
	loop(b, func() {
		lay, err := ScanReply(reply)
		if err != nil {
			b.Fatal(err)
		}
		p := GetBuf(2 * len(reply))
		*p = Splice(*p, [][]byte{reply, reply}, []Layout{lay, lay}, Tail{K: benchK, Format: "distributed"})
		PutBuf(p)
	})
}

// BenchmarkWindow is the router's cut of a cluster_partitioned /spmv body:
// one 78 400-entry x, cut into the column windows of two row blocks of a
// 280-wide stencil, each reaching one band past the middle.
func BenchmarkWindow(b *testing.B) {
	body, err := AppendRequest(nil, benchPanel()[:1], nil)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := ScanRequest(body)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	const band = 280
	loop(b, func() {
		for _, w := range [][2]int{{0, benchCols/2 + band}, {benchCols/2 - band, benchCols}} {
			p := GetBuf(len(body))
			*p = Window(*p, body, lay, w[0], w[1])
			PutBuf(p)
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/2/1e6, "ms/window")
}
