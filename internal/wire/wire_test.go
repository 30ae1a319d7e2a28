package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// edgeFloats sit on every branch of the number printer: the %e/%f format
// boundaries, negative zero, subnormals, the extremes, and values whose
// shortest text is long.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, -2.25, 100, 1e6,
	1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 9.99999999999999e20, 1e22, 1e-9, 1.5e-10, 1e100, 1e-100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	2.225073858507201e-308, 123456789.12345679, 5e-324, 4.9e-324, 1e23, 8.41e21,
}

// decoded is a panel request decoded the way the server does it: scan, then
// every vector and the progress indicator converted.
type decoded struct {
	X        [][]float64
	Progress *float64
}

func decodeRequest(body []byte) (*decoded, error) {
	lay, err := ScanRequest(body)
	if err != nil {
		return nil, err
	}
	d := &decoded{}
	if d.Progress, err = lay.Progress(body); err != nil {
		return nil, err
	}
	if lay.Vectors != nil {
		d.X = make([][]float64, len(lay.Vectors))
	}
	for i, sp := range lay.Vectors {
		d.X[i] = make([]float64, sp.N)
		if err := DecodeVector(body[sp.Lo:sp.Hi], d.X[i], 1); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	xs := [][]float64{edgeFloats, {}, {42}}
	progress := 1e-7
	got, err := AppendRequest(nil, xs, &progress)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		X        [][]float64 `json:"x"`
		Progress *float64    `json:"progress,omitempty"`
	}{xs, &progress})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("request differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	if got, _ = AppendRequest(nil, [][]float64{{1}}, nil); string(got) != `{"x":[[1]]}` {
		t.Errorf("nil progress must be omitted: %s", got)
	}

	for _, tail := range []Tail{{Format: "csr"}, {K: 3, Format: "sell"}, {K: 3, Format: "distributed", ServedBy: []string{"http://a:1/?q=<&>", "b"}}} {
		got, err := AppendReply(nil, xs, 1, tail)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(struct {
			Y [][]float64 `json:"y"`
			Tail
		}{xs, tail}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("reply differs from json.Encoder:\n got %s\nwant %s", got, buf.Bytes())
		}
	}
}

// TestEncodeStrided encodes the columns of a row-major panel in place and
// expects what the unpacked columns encode to.
func TestEncodeStrided(t *testing.T) {
	const rows, k = 7, 3
	panel := make([]float64, rows*k)
	cols := make([][]float64, k)
	for j := 0; j < rows; j++ {
		for i := 0; i < k; i++ {
			panel[j*k+i] = float64(j) + float64(i)/10
			cols[i] = append(cols[i], panel[j*k+i])
		}
	}
	for _, r := range [][2]int{{0, rows}, {2, 5}, {6, 7}} {
		lo, hi := r[0], r[1]
		strided, unpacked := make([][]float64, k), make([][]float64, k)
		for i := range strided {
			strided[i] = panel[lo*k+i : hi*k]
			unpacked[i] = cols[i][lo:hi]
		}
		got, err := AppendReply(nil, strided, k, Tail{K: k, Format: "csr"})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := AppendReply(nil, unpacked, 1, Tail{K: k, Format: "csr"})
		if !bytes.Equal(got, want) {
			t.Errorf("rows [%d,%d): strided %s, unpacked %s", lo, hi, got, want)
		}
	}
}

func TestEncodeNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := AppendReply(nil, [][]float64{{1, 2}, {3, bad, 5}}, 1, Tail{Format: "csr"})
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Vector != 1 || nf.Index != 1 {
			t.Errorf("reply with %v: error %v, want NonFiniteError{1,1}", bad, err)
		}
		// The index counts entries, not panel slots.
		_, err = AppendReply(nil, [][]float64{{1, 0, 2, 0, bad, 0}}, 2, Tail{Format: "csr"})
		if !errors.As(err, &nf) || nf.Vector != 0 || nf.Index != 2 {
			t.Errorf("strided reply with %v: error %v, want NonFiniteError{0,2}", bad, err)
		}
		_, err = AppendRequest(nil, [][]float64{{1}}, &bad)
		if !errors.As(err, &nf) || nf.Vector >= 0 {
			t.Errorf("progress %v: error %v, want NonFiniteError for progress", bad, err)
		}
	}
}

func TestDecodeRequest(t *testing.T) {
	half := 0.5
	for _, tc := range []struct {
		body     string
		x        [][]float64
		progress *float64
	}{
		{`{"x":[[1,2,3],[4,5,6]]}`, [][]float64{{1, 2, 3}, {4, 5, 6}}, nil},
		{" \t\r\n{ \"x\" : [ [ 1 , -2.5e3 ] , [ ] ] , \"progress\" : 0.5 } trailing", [][]float64{{1, -2500}, {}}, &half},
		{`{"progress":5e-1,"x":[[-0,1E2,1e+2,0.1e-2]]}`, [][]float64{{math.Copysign(0, -1), 100, 100, 0.001}}, &half},
		{`{}`, nil, nil},
		{`null`, nil, nil},
		{`{"x":null,"progress":null}`, nil, nil},
		{`{"x":[]}`, [][]float64{}, nil},
		{`{"x":[[1e-400,4.9e-324,1.7976931348623157e308]]}`, [][]float64{{0, 5e-324, math.MaxFloat64}}, nil},
	} {
		req, err := decodeRequest([]byte(tc.body))
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if len(req.X) != len(tc.x) || (req.X == nil) != (tc.x == nil) {
			t.Errorf("%s: x = %v, want %v", tc.body, req.X, tc.x)
		}
		for i := range tc.x {
			if len(req.X[i]) != len(tc.x[i]) {
				t.Errorf("%s: x[%d] = %v, want %v", tc.body, i, req.X[i], tc.x[i])
				continue
			}
			for j := range tc.x[i] {
				if math.Float64bits(req.X[i][j]) != math.Float64bits(tc.x[i][j]) {
					t.Errorf("%s: x[%d][%d] = %v, want %v", tc.body, i, j, req.X[i][j], tc.x[i][j])
				}
			}
		}
		if (req.Progress == nil) != (tc.progress == nil) || (req.Progress != nil && *req.Progress != *tc.progress) {
			t.Errorf("%s: progress %v, want %v", tc.body, req.Progress, tc.progress)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	for _, body := range []string{
		``, ` `, `{`, `[`, `[[1]]`, `1`, `"x"`, `true`, `nul`, `{"x"}`, `{"x":}`, `{"x":[[1]]`, `{"x":[[1]`, `{"x":[[1`,
		`{"x":[[1]],}`, `{,}`, `{"x":[[1]] "progress":1}`, `{x:[[1]]}`,
		`{"y":[[1]]}`, `{"x":[[1]],"extra":1}`, `{"X":[[1]]}`, `{"Progress":1}`, `{"x":[[1]],"x":[[2]]}`,
		// The retired partial-product range is an unknown field.
		`{"x":[[1]],"row_lo":1,"row_hi":2}`, `{"row_hi":0}`, `{"row_lo":null}`,
		`{"x":1}`, `{"x":"1"}`, `{"x":{}}`, `{"x":[1]}`, `{"x":[[[1]]]}`, `{"x":[[1],2]}`, `{"x":[null]}`, `{"x":[[1,null]]}`,
		`{"x":[["1"]]}`, `{"x":[[true]]}`, `{"x":[[1,]]}`, `{"x":[[,1]]}`, `{"x":[[1,,2]]}`, `{"x":[[1 2]]}`, `{"x":[[1],]}`, `{"x":[,[1]]}`,
		`{"x":[[+1]]}`, `{"x":[[.5]]}`, `{"x":[[1.]]}`, `{"x":[[01]]}`, `{"x":[[-]]}`, `{"x":[[1e]]}`, `{"x":[[1e+]]}`, `{"x":[[0x10]]}`,
		`{"x":[[NaN]]}`, `{"x":[[Infinity]]}`, `{"x":[[1_000]]}`, `{"x":[[1e999]]}`, `{"x":[[-1e999]]}`,
		`{"progress":"0.5"}`, `{"progress":1e999}`, `{"progress":[1]}`, `{"progress":.5}`,
		"{\"x\x01\":[[1]]}", `{"x\q":[[1]]}`, `{"x":[[1]],"progress":nul}`,
	} {
		if req, err := decodeRequest([]byte(body)); err == nil {
			t.Errorf("%q decoded to %+v, want an error", body, req)
		}
	}
}

func TestScanAndSplice(t *testing.T) {
	lay, err := ScanRequest([]byte(`{"x":[[1,2,3],[ ],[4.5]],"progress":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(lay.Vectors) != 3 || lay.Vectors[0].N != 3 || lay.Vectors[1].N != 0 || lay.Vectors[2].N != 1 {
		t.Errorf("request layout %+v", lay)
	}
	// Scan sizes vectors without reading their numbers: what it lets through
	// here, decode rejects.
	body := []byte(`{"x":[[1,oops,3]]}`)
	if lay, err = ScanRequest(body); err != nil || lay.Vectors[0].N != 3 {
		t.Errorf("scan of unparsed numbers: %+v, %v", lay, err)
	}
	if _, err := decodeRequest(body); err == nil {
		t.Error("decode accepted a vector scan could only size")
	}

	// A product cut into row blocks and spliced back is the product.
	ys := [][]float64{edgeFloats, edgeFloats[3:], edgeFloats[:len(edgeFloats)-3]}
	rows := len(ys[1])
	for i := range ys {
		ys[i] = ys[i][:rows]
	}
	whole, err := AppendReply(nil, ys, 1, Tail{K: 3, Format: "distributed", ServedBy: []string{"s1", "s2", "s3"}})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	var lays []Layout
	for _, cut := range [][2]int{{0, 5}, {5, 5}, {5, rows}} { // the middle block is empty
		block := make([][]float64, len(ys))
		for i := range ys {
			block[i] = ys[i][cut[0]:cut[1]]
		}
		b, err := AppendReply(nil, block, 1, Tail{K: 3, Format: "csr"})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := ScanReply(b)
		if err != nil {
			t.Fatal(err)
		}
		if lay.K != 3 || lay.Format != "csr" || len(lay.Vectors) != 3 || lay.Vectors[0].N != cut[1]-cut[0] {
			t.Fatalf("reply layout %+v for rows %v", lay, cut)
		}
		bodies, lays = append(bodies, b), append(lays, lay)
	}
	got := Splice(nil, bodies, lays, Tail{K: 3, Format: "distributed", ServedBy: []string{"s1", "s2", "s3"}})
	if !bytes.Equal(got, whole) {
		t.Errorf("spliced reply differs:\n got %s\nwant %s", got, whole)
	}

	for _, bad := range []string{`{"y":[[1,2`, `{"y":[[1]],"k":"4"}`, `{"y":[[1]],"format":7}`, `{"y":[[1]],"y":[[2]]}`,
		`{"y":[[1]],"served_by":["a"}`, `{"y":[[1]],"k":}`, `{"y":[[1]],"extra":"unclosed}`, `{"y":[[1]]`, `[[1]]`} {
		if _, err := ScanReply([]byte(bad)); err == nil {
			t.Errorf("ScanReply(%s) succeeded", bad)
		}
	}
}

// TestWindow cuts column windows out of request bodies — compact, spaced
// around every entry, with and without progress, one vector and four — and
// requires each window to scan as a request holding entries [lo, hi) of
// every vector, bit for bit, with the body's progress.
func TestWindow(t *testing.T) {
	n := len(edgeFloats)
	xs := make([][]float64, 4)
	for v := range xs {
		xs[v] = make([]float64, n)
		for i := range xs[v] {
			xs[v][i] = edgeFloats[(i+7*v)%n]
		}
	}
	progress := 0.25
	compact, err := AppendRequest(nil, xs, &progress)
	if err != nil {
		t.Fatal(err)
	}
	one, err := AppendRequest(nil, xs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	// The same requests with JSON whitespace around every entry and token.
	space := func(b []byte) []byte {
		return []byte(strings.NewReplacer(`,`, " ,\n\t", `[`, "[ \r", `]`, " ]", `:`, " : ").Replace(string(b)))
	}
	bodies := map[string][]byte{
		"k=4":             compact,
		"k=4 spaced":      space(compact),
		"k=4 no progress": append(bytes.Clone(compact[:bytes.LastIndex(compact, []byte(`,"progress"`))]), '}'),
		"k=1 no progress": one,
		"k=1 spaced":      space(one),
	}
	windows := [][2]int{{0, 5}, {5, 17}, {17, n}, {9, 9}, {0, n}, {0, 1}, {n - 1, n}}
	for name, body := range bodies {
		lay, err := ScanRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range windows {
			got := Window(nil, body, lay, w[0], w[1])
			d, err := decodeRequest(got)
			if err != nil {
				t.Fatalf("%s window %v: %q does not decode: %v", name, w, got, err)
			}
			if len(d.X) != len(want.X) {
				t.Fatalf("%s window %v: %d vectors, want %d", name, w, len(d.X), len(want.X))
			}
			for v := range d.X {
				if !bitsEqual(d.X[v], want.X[v][w[0]:w[1]]) {
					t.Errorf("%s window %v: vector %d = %v, want %v", name, w, v, d.X[v], want.X[v][w[0]:w[1]])
				}
			}
			if (d.Progress == nil) != (want.Progress == nil) || d.Progress != nil && *d.Progress != *want.Progress {
				t.Errorf("%s window %v: progress %v, want %v", name, w, d.Progress, want.Progress)
			}
			// A compact body's window is the request its window of x encodes to.
			if name == "k=4" {
				part := make([][]float64, len(xs))
				for v := range xs {
					part[v] = xs[v][w[0]:w[1]]
				}
				if enc, _ := AppendRequest(nil, part, &progress); !bytes.Equal(got, enc) {
					t.Errorf("window %v of a compact body:\n got %s\nwant %s", w, got, enc)
				}
			}
		}
	}
}

// TestCutLongVector cuts vectors long enough that Cut counts commas whole
// blocks at a time, entries of every width from one byte ("0") to the
// longest, some runs of short ones and some spaced, and holds every cut to
// the one a walk from comma to comma makes.
func TestCutLongVector(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var text []byte
	n := 6000
	for i := 0; i < n; i++ {
		if i > 0 {
			text = append(text, ',')
		}
		switch {
		case i%1000 < 300:
			text = append(text, '0')
		case i%7 == 0:
			text = append(text, " \n 12 "...)
		default:
			text, _ = appendFloat(text, math.Float64frombits(rng.Uint64()>>2))
		}
	}
	body := []byte(`{"x":[[` + string(text) + `]]}`)
	lay, err := ScanRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	sp := lay.Vectors[0]
	commas := []int{sp.Lo - 1} // commas[j]: the comma ahead of entry j
	for i := sp.Lo; i < sp.Hi; i++ {
		if body[i] == ',' {
			commas = append(commas, i)
		}
	}
	commas = append(commas, sp.Hi)
	for trial := 0; trial < 2000; trial++ {
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		want := Span{Lo: commas[lo] + 1, Hi: commas[hi], N: hi - lo}
		if got := sp.Cut(body, lo, hi); got != want {
			t.Fatalf("Cut(%d, %d) = %+v, want %+v", lo, hi, got, want)
		}
	}
}

// TestMaxFloatLen: the longest entries of both forms, comma included, fit
// the reserve, and the longest takes all of it.
func TestMaxFloatLen(t *testing.T) {
	longest := 0
	for _, f := range []float64{-1.2345678901234567e-6, -2.2250738585072014e-308, -1.2345678901234567e-100, -1.2345678901234567e20} {
		b, ok := appendFloat([]byte{','}, f)
		if !ok || len(b) > MaxFloatLen {
			t.Errorf("%q takes %d bytes, MaxFloatLen is %d", b, len(b), MaxFloatLen)
		}
		longest = max(longest, len(b))
	}
	if longest != MaxFloatLen {
		t.Errorf("the longest entry takes %d bytes, MaxFloatLen is %d", longest, MaxFloatLen)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAppendRequestParallel: the pieces, however many, join into
// AppendRequest's bytes, and a non-finite entry is reported at its index in
// x, the first one when there are several.
func TestAppendRequestParallel(t *testing.T) {
	x := append(append([]float64(nil), edgeFloats...), edgeFloats...)
	progress := 1e-7
	for _, p := range []*float64{nil, &progress} {
		want, err := AppendRequest(nil, [][]float64{x}, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{0, 1, 2, 3, 7, len(x), len(x) + 5} {
			got, err := AppendRequestParallel([]byte("prefix"), x, parts, p)
			if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Errorf("%d parts, progress %v: %v\n got %s\nwant prefix%s", parts, p, err, got, want)
			}
		}
	}
	if got, err := AppendRequestParallel(nil, nil, 2, nil); err != nil || string(got) != `{"x":[[]]}` {
		t.Errorf("empty x: %s, %v", got, err)
	}
	bad := append([]float64(nil), x...)
	bad[len(x)-3], bad[len(x)/2+1] = math.Inf(1), math.NaN()
	for _, parts := range []int{1, 2, 3, len(x)} {
		_, err := AppendRequestParallel(nil, bad, parts, nil)
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Vector != 0 || nf.Index != len(x)/2+1 {
			t.Errorf("%d parts: error %v, want NonFiniteError{0,%d}", parts, err, len(x)/2+1)
		}
	}
	inf := math.Inf(-1)
	if _, err := AppendRequestParallel(nil, x, 2, &inf); !errors.As(err, new(*NonFiniteError)) {
		t.Errorf("progress -Inf: error %v", err)
	}
}

// TestReplyGolden pins the panel reply's field names and order, which clients
// parse and the benchmark's frozen surface names: Reply and Tail are their
// one declaration, so nothing else would notice a tag edited there.
func TestReplyGolden(t *testing.T) {
	for _, c := range []struct {
		tail Tail
		want string
	}{
		{Tail{Format: "csr"}, `{"y":[[1,2.5]],"format":"csr"}` + "\n"},
		{Tail{K: 1, Format: "distributed", ServedBy: []string{"http://a", "http://b"}},
			`{"y":[[1,2.5]],"k":1,"format":"distributed","served_by":["http://a","http://b"]}` + "\n"},
	} {
		ys := [][]float64{{1, 2.5}}
		got, err := AppendReply(nil, ys, 1, c.tail)
		if err != nil || string(got) != c.want {
			t.Errorf("AppendReply = %s (%v), want %s", got, err, c.want)
		}
		var std bytes.Buffer
		if err := json.NewEncoder(&std).Encode(Reply{Y: ys, Tail: c.tail}); err != nil || std.String() != c.want {
			t.Errorf("encoding/json prints Reply as %s (%v), want %s", std.String(), err, c.want)
		}
	}
}

// TestScanReplyReadsTheTailLikeEncodingJSON: a reply is scanned for "y" and
// the rest of it goes through encoding/json into Tail, so a router's reply
// (served_by), keys in any order, and keys Tail does not have all read the
// way json.Unmarshal into a Reply reads them.
func TestScanReplyReadsTheTailLikeEncodingJSON(t *testing.T) {
	for _, doc := range []string{
		`{"y":[[1,2],[3,4]],"k":2,"format":"distributed","served_by":["http://a","http://b"]}` + "\n",
		`{"format":"csr","y":[[1,2]]}`,
		` { "served_by" : [ "a]" , "b,\"}" ] , "y" : [ [ 1 , 2 ] ] , "format" : "e\u006cl" } `,
		`{"y":[[1]],"format":"csr","trace":{"spans":[{"n":"a","t":[1,2]}],"ok":true},"k":1}`,
		`{"y":[],"k":null,"format":"csr"}`,
		`{"y":null,"format":"csr"}`,
		`{"x":[[1]]}`,
		`{}`,
		`null`,
	} {
		var want Reply
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		lay, err := ScanReply([]byte(doc))
		if err != nil {
			t.Errorf("ScanReply(%s): %v", doc, err)
			continue
		}
		if !reflect.DeepEqual(lay.Tail, want.Tail) {
			t.Errorf("ScanReply(%s) tail = %+v, encoding/json reads %+v", doc, lay.Tail, want.Tail)
		}
		if len(lay.Vectors) != len(want.Y) {
			t.Errorf("ScanReply(%s) found %d vectors, encoding/json %d", doc, len(lay.Vectors), len(want.Y))
		}
		for i, sp := range lay.Vectors {
			got := make([]float64, sp.N)
			if err := DecodeVector([]byte(doc)[sp.Lo:sp.Hi], got, 1); err != nil || !reflect.DeepEqual(got, want.Y[i]) {
				t.Errorf("ScanReply(%s) y[%d] = %v (%v), encoding/json reads %v", doc, i, got, err, want.Y[i])
			}
		}
	}
}

func TestDecodeVector(t *testing.T) {
	dst := make([]float64, 3)
	if err := DecodeVector([]byte(" 1 ,2.5, -3e0 "), dst, 1); err != nil || dst[0] != 1 || dst[1] != 2.5 || dst[2] != -3 {
		t.Errorf("DecodeVector = %v, %v", dst, err)
	}
	for _, bad := range []string{"1,2", "1,2,3,4", "1,2,x", "", "1,2,3,"} {
		if err := DecodeVector([]byte(bad), dst, 1); err == nil {
			t.Errorf("DecodeVector(%q) into 3 entries succeeded", bad)
		}
	}
	if err := DecodeVector([]byte("  "), nil, 1); err != nil {
		t.Errorf("empty vector: %v", err)
	}
	// Column 1 of a 3-column row-major panel: the other columns stay put.
	panel := []float64{-1, -1, -1, -1, -1, -1, -1, -1, -1}
	if err := DecodeVector([]byte("7,8,9"), panel[1:], 3); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{-1, 7, -1, -1, 8, -1, -1, 9, -1} {
		if panel[i] != want {
			t.Fatalf("strided decode wrote %v", panel)
		}
	}
	if err := DecodeVector([]byte("7,8"), panel[1:], 3); err == nil {
		t.Error("two entries into a three-row column succeeded")
	}
}

// The messages and offsets a malformed or out-of-range number gets, recorded
// from the decoder that scanned the grammar and then called
// strconv.ParseFloat: the single-pass reader must say the same thing about
// the same byte.
func TestNumberErrorsMatchRecorded(t *testing.T) {
	for _, c := range []struct{ text, err string }{
		{"-", "unexpected end of JSON input in numeric literal"},
		{" -a", "invalid character 'a' at offset 2 in numeric literal"},
		{"1,+1", "invalid character '+' at offset 2 in numeric literal"},
		{"1,.5", "invalid character '.' at offset 2 in numeric literal"},
		{"1.", "unexpected end of JSON input after decimal point in numeric literal"},
		{"1,2.e3", "invalid character 'e' at offset 4 after decimal point in numeric literal"},
		{"1e", "unexpected end of JSON input in exponent of numeric literal"},
		{"1, 1e+", "unexpected end of JSON input in exponent of numeric literal"},
		{"1E-x", "invalid character 'x' at offset 3 in exponent of numeric literal"},
		{"01", "invalid character '1' at offset 1 after vector entry"},
		{"1 2", "invalid character '2' at offset 2 after vector entry"},
		{"1.5x", "invalid character 'x' at offset 3 after vector entry"},
		{"x", "invalid character 'x' at offset 0 in numeric literal"},
		{"1e999", "number 1e999 at offset 0 does not fit a float64"},
		{"1,-1e999", "number -1e999 at offset 2 does not fit a float64"},
		{"1, 2e400 ", "number 2e400 at offset 3 does not fit a float64"},
		{"123456789012345678901234567890e400", "number 123456789012345678901234567890e400 at offset 0 does not fit a float64"},
		{"1,", "unexpected end of JSON input in numeric literal"},
		{"", "unexpected end of JSON input in numeric literal"},
		{"1,2,3", "invalid character ',' at offset 3 after vector entry"},
		{"0.1,1e-99999,0x1", "invalid character ',' at offset 12 after vector entry"},
	} {
		err := DecodeVector([]byte(c.text), make([]float64, 2), 1)
		if fmt.Sprint(err) != c.err {
			t.Errorf("DecodeVector(%q): %v, recorded %s", c.text, err, c.err)
		}
	}
	for _, c := range []struct{ body, err string }{
		{`{"progress":-}`, `field "progress": invalid character '}' at offset 13 in numeric literal`},
		{`{"progress":1.}`, `field "progress": invalid character '}' at offset 14 after decimal point in numeric literal`},
		{`{"progress":1e+}`, `field "progress": invalid character '}' at offset 15 in exponent of numeric literal`},
		{`{"progress":01}`, `invalid character '1' at offset 13 after object key:value pair`},
		{`{"progress":1e999}`, `number 1e999 at offset 12 does not fit a float64`},
		{`{"x":[[1]], "progress": -1.5e400 }`, `number -1.5e400 at offset 24 does not fit a float64`},
		{`{"progress":+1}`, `field "progress": invalid character '+' at offset 12 in numeric literal`},
		{`{"progress":.5}`, `field "progress": invalid character '.' at offset 12 in numeric literal`},
		{`{"progress":0.25}`, `<nil>`},
		{`{"progress":1e-400}`, `<nil>`},
		{`{"progress":1`, `unexpected end of JSON input after object key:value pair`},
	} {
		lay, err := ScanRequest([]byte(c.body))
		if err == nil {
			_, err = lay.Progress([]byte(c.body))
		}
		if fmt.Sprint(err) != c.err {
			t.Errorf("%s: %v, recorded %s", c.body, err, c.err)
		}
	}
}

func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 1000)
	for _, size := range []int64{int64(len(data)), -1, 0, 17, 1 << 40} {
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data)), iotest.DataErrReader(bytes.NewReader(data))} {
			p, err := ReadBody(r, size)
			if err != nil || !bytes.Equal(*p, data) {
				t.Fatalf("size hint %d: read %d bytes, err %v", size, len(*p), err)
			}
			PutBuf(p)
		}
	}
	if p, err := ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), 10); err == nil || p != nil {
		t.Errorf("read error not reported: %v, %v", p, err)
	}
	if p, err := ReadBody(strings.NewReader(""), 0); err != nil || len(*p) != 0 {
		t.Errorf("empty body: %v, %v", p, err)
	}
}

// TestVecPoolNoAllocs is the regression guard for the per-request vector
// pooling: once the pool is warm, a get/use/put cycle must not allocate.
func TestVecPoolNoAllocs(t *testing.T) {
	PutVec(GetVec(2048))
	allocs := testing.AllocsPerRun(200, func() {
		p := GetVec(2048)
		(*p)[0] = 1
		(*p)[2047] = 2
		PutVec(p)
	})
	if allocs != 0 {
		t.Errorf("warm pool get/put allocates %g times per run, want 0", allocs)
	}
}

// TestVecPoolRespectsLength: a pooled buffer that is too small must be
// replaced, and a larger one must be re-sliced to the requested length.
func TestVecPoolRespectsLength(t *testing.T) {
	small := GetVec(8)
	PutVec(small)
	big := GetVec(1 << 16)
	if len(*big) != 1<<16 {
		t.Fatalf("got len %d, want %d", len(*big), 1<<16)
	}
	PutVec(big)
	again := GetVec(16)
	if len(*again) != 16 {
		t.Fatalf("re-sliced len %d, want 16", len(*again))
	}
	PutVec(again)
}

// TestPoolReuseHammer runs the whole codec from many goroutines over shared
// pools; under -race a buffer handed to two owners shows up here, and a
// recycled buffer that leaks stale contents shows up as a wrong value.
func TestPoolReuseHammer(t *testing.T) {
	const workers, rounds = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n, k := 1+(w*131+r*17)%700, 1+(w+r)%4
				xs := make([][]float64, k)
				for i := range xs {
					xs[i] = make([]float64, n)
					for j := range xs[i] {
						xs[i][j] = float64(w*1_000_000+r*1000+i) + float64(j)/8
					}
				}
				out := GetBuf(0)
				var err error
				if *out, err = AppendRequest(*out, xs, nil); err != nil {
					t.Error(err)
					return
				}
				body, err := ReadBody(bytes.NewReader(*out), int64(len(*out)))
				PutBuf(out)
				if err != nil {
					t.Error(err)
					return
				}
				req, err := decodeRequest(*body)
				PutBuf(body)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range xs {
					for j := range xs[i] {
						if req.X[i][j] != xs[i][j] {
							t.Errorf("worker %d round %d: x[%d][%d] = %v, want %v", w, r, i, j, req.X[i][j], xs[i][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPoolClasses: a get is served a capacity that fits and wastes at most a
// quarter, and a buffer goes back to a class whose every get it can serve.
func TestPoolClasses(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 10, 11, 1000, 1023, 1024, 1025, 78_400, 5_900_001, 1 << 30} {
		c := classOf(max(n, 4))
		if classBound(c) < n {
			c++
		}
		if got := classBound(c); got < n || (n >= 4 && got > n+n/4) {
			t.Errorf("get(%d) would allocate %d", n, got)
		}
		if n >= 4 {
			if back := classOf(classBound(c)); back != c {
				t.Errorf("a fresh class-%d buffer goes back to class %d", c, back)
			}
			if classBound(classOf(n)) > n {
				t.Errorf("a buffer of capacity %d is put into class %d, whose gets may ask for %d", n, classOf(n), classBound(classOf(n)))
			}
		}
	}
	p := GetBuf(1000)
	if cap(*p) < 1000 || cap(*p) > 1250 || len(*p) != 0 {
		t.Errorf("GetBuf(1000): len %d cap %d", len(*p), cap(*p))
	}
	PutBuf(p)
	PutBuf(nil)
	PutBuf(&[]byte{})
}
