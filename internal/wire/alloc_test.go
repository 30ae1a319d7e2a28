//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed, at
// random, so allocation ceilings only hold without it.

package wire

import (
	"bytes"
	"testing"
)

// TestSteadyStateAllocations holds the codec to O(1) allocations per call
// once the pools are warm, whatever the panel's size: the garbage
// encoding/json made per request (31 MB for a 4 x 78 400 decode) must not
// creep back.
func TestSteadyStateAllocations(t *testing.T) {
	for _, n := range []int{64, 20_000} {
		xs := make([][]float64, 4)
		for i := range xs {
			xs[i] = make([]float64, n)
			for j := range xs[i] {
				xs[i][j] = float64(j)*1.0000001 - float64(i)
			}
		}
		body, err := AppendRequest(nil, xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		decode := testing.AllocsPerRun(20, func() {
			lay, err := ScanRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range lay.Vectors {
				x := GetVec(sp.N)
				if err := DecodeVector(body[sp.Lo:sp.Hi], *x, 1); err != nil {
					t.Fatal(err)
				}
				PutVec(x)
			}
		})
		scan := testing.AllocsPerRun(20, func() {
			if _, err := ScanRequest(body); err != nil {
				t.Fatal(err)
			}
		})
		read := testing.AllocsPerRun(20, func() {
			p, err := ReadBody(bytes.NewReader(body), int64(len(body)))
			if err != nil {
				t.Fatal(err)
			}
			PutBuf(p)
		})
		encode := testing.AllocsPerRun(20, func() {
			p := GetBuf(len(body))
			if *p, err = AppendReply(*p, xs, 1, Tail{K: 4, Format: "csr"}); err != nil {
				t.Fatal(err)
			}
			PutBuf(p)
		})
		// scan and decode: the layout's spans; encode: json.Marshal of the
		// tail; read: the bytes.Reader of the test itself.
		for _, c := range []struct {
			name        string
			got, atMost float64
		}{{"decode", decode, 3}, {"scan", scan, 3}, {"read", read, 1}, {"encode", encode, 4}} {
			if c.got > c.atMost {
				t.Errorf("n=%d: %s allocates %g times per call, want at most %g", n, c.name, c.got, c.atMost)
			}
		}
	}
}
