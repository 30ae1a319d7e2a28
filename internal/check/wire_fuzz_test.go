package check

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/floattext"
	"repro/internal/server"
	"repro/internal/wire"
)

// wireLeniency names which of the three things internal/wire deliberately
// rejects although encoding/json lets them through (see the wire package
// doc) a body exercises, "" for none. It is only consulted for bodies the
// strict encoding/json decode accepted, so every key it meets matched a
// PanelRequest field at least case-insensitively.
func wireLeniency(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		key, _ := tok.(string)
		switch key {
		case "x", "progress":
		default:
			return "case-folded key"
		}
		if seen[key] {
			return "duplicate key"
		}
		seen[key] = true
		for depth := 0; ; {
			tok, err := dec.Token()
			if err != nil {
				return ""
			}
			switch tok {
			case json.Delim('['), json.Delim('{'):
				depth++
			case json.Delim(']'), json.Delim('}'):
				depth--
			case nil:
				if key == "x" && depth > 0 {
					return "null inside x"
				}
			}
			if depth == 0 {
				break
			}
		}
	}
	return ""
}

// wireDecode decodes a panel request the way ocsd does: scan the body, then
// convert the progress indicator and every vector.
func wireDecode(body []byte) (req server.PanelRequest, err error) {
	lay, err := wire.ScanRequest(body)
	if err != nil {
		return req, err
	}
	if req.Progress, err = lay.Progress(body); err != nil {
		return req, err
	}
	if lay.Vectors != nil {
		req.X = make([][]float64, len(lay.Vectors))
	}
	for i, sp := range lay.Vectors {
		req.X[i] = make([]float64, sp.N)
		if err := wire.DecodeVector(body[sp.Lo:sp.Hi], req.X[i], 1); err != nil {
			return req, err
		}
	}
	return req, nil
}

// FuzzWireDecodePanel is the differential fuzz of the panel decoder with
// encoding/json — what every handler used before — as the oracle: the same
// bodies are accepted and rejected, an accepted body decodes to bit-identical
// values, and the only disagreement allowed is wire rejecting one of its
// three documented leniencies. Never an acceptance json refuses, never a
// different value.
func FuzzWireDecodePanel(f *testing.F) {
	// row_lo/row_hi are not request fields (there are no partial products):
	// every seed carrying one is a rejection the two decoders must share.
	full := `{"x":[[1,-2.5e3,0.1],[4,5,6e-7]],"row_lo":1,"row_hi":2,"progress":0.5}`
	for i := 0; i <= len(full); i++ {
		f.Add([]byte(full[:i])) // the body cut at every byte
	}
	for _, s := range []string{
		`{"x":[[1e5,1E5,1e+5,1e-5,-0,0.0,-0.0e0]]}`,
		`{"x":[[5e-324,4.9e-324,2.2250738585072014e-308,1e-400,1.7976931348623157e308]]}`,
		`{"x":[[1e21,1e20,1e-7,1e-6,123456789012345678901234567890]]}`,
		`{"x":[[1e999]]}`, `{"x":[[-1e999]]}`, `{"progress":1e999}`,
		`{"x":[[01]]}`, `{"x":[[+1]]}`, `{"x":[[.5]]}`, `{"x":[[1.]]}`, `{"x":[[NaN]]}`, `{"x":[[Infinity]]}`, `{"x":[[0x1p-2]]}`, `{"x":[[1_0]]}`,
		`{"x":[[[1]]]}`, `{"x":[1]}`, `{"x":[[1],[]]}`, `{"x":[[1,2],[3]]}`, `{"x":[[]]}`, `{"x":[]}`,
		`{"x":null}`, `null`, `nullx`, `{}`, `{"x":[null]}`, `{"x":[[null]]}`, `{"x":[[1,null,2]]}`,
		`{"x":[[1]],"extra":true}`, `{"y":[[1]]}`, `{"X":[[1]]}`, `{"Progress":1}`, `{"ROW_LO":1}`, "{\"progreſs\":1}",
		`{"x":[[1]],"x":[[2]]}`, `{"row_lo":1,"row_lo":2}`, `{"x":[[7]],"x":[[null]]}`,
		`{"x":[[1]]}trailing`, `{"x":[[1]]} {"x":[[2]]}`, `{"x":[[1]]}}`,
		" \t\r\n{ \"x\" \n: [ [ 1 , 2 ] , [ 3 ] ] , \"row_hi\" : 3 } ",
		`{"\u0078":[[1]]}`, `{"row\u005flo":3}`, `{"x\x00":[[1]]}`, `{"x\u0000":[[1]]}`, "{\"x\xff\":[[1]]}", "{\"x\":[[1]],\"row_lo\"\x00:1}", `{"row_lo":1.0}`, `{"row_lo":1e0}`, `{"row_lo":-0}`, `{"row_lo":9223372036854775808}`,
		`{"progress":null,"row_lo":null,"row_hi":null}`, `{"progress":"1"}`, `{"x":"[[1]]"}`, `{"x":[["1"]]}`, `{"x":[[true]]}`, `{"x":{"0":[1]}}`,
		`{"x":[[1,"]",2]]}`, `{"x":[[1,[2]]}`, `[{"x":[[1]]}]`, `1`, `"x"`, `true`, ``, ` `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want server.PanelRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		got, err := wireDecode(data)
		if err != nil {
			if wantErr == nil {
				if why := wireLeniency(data); why == "" {
					t.Fatalf("wire rejects what encoding/json accepts, and not for a documented leniency: %v", err)
				}
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("wire accepts what encoding/json rejects (%v)", wantErr)
		}
		if (got.X == nil) != (want.X == nil) || len(got.X) != len(want.X) {
			t.Fatalf("x holds %d vectors (nil %v), encoding/json %d (nil %v)", len(got.X), got.X == nil, len(want.X), want.X == nil)
		}
		for i := range want.X {
			if len(got.X[i]) != len(want.X[i]) {
				t.Fatalf("x[%d] holds %d entries, encoding/json %d", i, len(got.X[i]), len(want.X[i]))
			}
			for j := range want.X[i] {
				if math.Float64bits(got.X[i][j]) != math.Float64bits(want.X[i][j]) {
					t.Fatalf("x[%d][%d] = %v, encoding/json %v", i, j, got.X[i][j], want.X[i][j])
				}
			}
		}
		if (got.Progress == nil) != (want.Progress == nil) ||
			(got.Progress != nil && math.Float64bits(*got.Progress) != math.Float64bits(*want.Progress)) {
			t.Fatalf("progress %v, encoding/json %v", got.Progress, want.Progress)
		}
	})
}

// FuzzWireEncodeVector reads the input as float64 bit patterns and requires
// the panel encoder to print them byte-for-byte as encoding/json does — both
// as a request and, strided out of a row-major panel, as a reply — to refuse
// exactly the vectors encoding/json refuses (a NaN or ±Inf, at the right
// index), and to decode its own text back to the same bits.
func FuzzWireEncodeVector(f *testing.F) {
	seed := func(vs ...float64) {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b)
	}
	seed()
	seed(0, math.Copysign(0, -1), 1, -1, 0.1, 1.0/3)
	seed(1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 9.99999999999999e20, 1e-9, 1.5e-10, 1e22, 1e23)
	seed(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308)
	seed(1, math.NaN(), 2)
	seed(math.Inf(1))
	seed(3, 4, math.Inf(-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := make([]float64, len(data)/8)
		bad := -1
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if bad < 0 && (math.IsNaN(v[i]) || math.IsInf(v[i], 0)) {
				bad = i
			}
		}
		xs := [][]float64{v}
		want, wantErr := json.Marshal(server.PanelRequest{X: xs})
		got, err := wire.AppendRequest(nil, xs, nil)
		if bad >= 0 {
			var nf *wire.NonFiniteError
			if wantErr == nil || !errors.As(err, &nf) || nf.Vector != 0 || nf.Index != bad {
				t.Fatalf("entry %d is %v: wire error %v, encoding/json error %v", bad, v[bad], err, wantErr)
			}
			return
		}
		if err != nil || wantErr != nil {
			t.Fatalf("finite vector refused: wire %v, encoding/json %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request text differs:\nwire %s\njson %s", got, want)
		}
		back, err := wireDecode(got)
		if err != nil {
			t.Fatalf("decoding own text: %v", err)
		}
		for i := range v {
			if math.Float64bits(back.X[0][i]) != math.Float64bits(v[i]) {
				t.Fatalf("entry %d: %v came back as %v", i, v[i], back.X[0][i])
			}
		}

		// The same values as column 1 of a two-column row-major panel.
		panel := make([]float64, 2*len(v))
		for i, f := range v {
			panel[2*i+1] = f
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(server.PanelResponse{Y: xs, Tail: wire.Tail{K: 2, Format: "csr"}}); err != nil {
			t.Fatal(err)
		}
		col := panel[min(1, len(panel)):]
		reply, err := wire.AppendReply(nil, [][]float64{col}, 2, wire.Tail{K: 2, Format: "csr"})
		if err != nil || !bytes.Equal(reply, ref.Bytes()) {
			t.Fatalf("reply text differs (%v):\nwire %s\njson %s", err, reply, ref.Bytes())
		}
	})
}

// FuzzParseFloat is the differential fuzz of the service's one float reader
// with strconv.ParseFloat as the oracle. For any text, floattext.ParseFloat
// (what mmio reads a value with) returns strconv's bits and strconv's error;
// and a panel vector holding the text as its one entry (what wire decodes)
// is accepted exactly when the text is a JSON number strconv converts
// without a range error, to strconv's bits.
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"1234567890123456789", "12345678901234567890", "-9999999999999999999", "99999999999999999999",
		"0.1234567890123456789", "1.2345678901234567890e-5",
		// 800-digit mantissas: all nines, and 1 + 2^-53 (halfway between
		// two float64s) nudged up by its last digit.
		strings.Repeat("9", 800), "1.00000000000000011102230246251565404236316680908203125" + strings.Repeat("0", 744) + "1",
		"1e348", "1e-348", "1e350", "1e-350", "1e347", "-1e-347", "1e99999", "1e-99999", "0e99999",
		"2.2250738585072011e-308", "4.9406564584124654e-324", "9007199254740993",
		"-0", "0e0", "1E+2", "0", "-0.0", "1.7976931348623157e308", "1.7976931348623159e308",
		"+1", "01", ".5", "5.", "-", "1e", "1.e2", "inf", "-Infinity", "NaN", "0x1p-2", "1_0", " 1", "1 ", "1,2", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := strconv.ParseFloat(s, 64)
		got, err := floattext.ParseFloat([]byte(s))
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseFloat(%q) = %v (%#016x), %v; strconv %v (%#016x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}

		// A vector's text may pad its entry with JSON whitespace.
		num := strings.Trim(s, " \t\r\n")
		isNumber := json.Valid([]byte(num)) && num != "" && (num[0] == '-' || '0' <= num[0] && num[0] <= '9')
		want, wantErr = strconv.ParseFloat(num, 64)
		var dst [1]float64
		err = wire.DecodeVector([]byte(s), dst[:], 1)
		switch ok := isNumber && wantErr == nil; {
		case ok != (err == nil):
			t.Fatalf("DecodeVector(%q): %v; a JSON number: %v, strconv: %v", s, err, isNumber, wantErr)
		case ok && math.Float64bits(dst[0]) != math.Float64bits(want):
			t.Fatalf("DecodeVector(%q) = %v (%#016x); strconv %v (%#016x)", s, dst[0], math.Float64bits(dst[0]), want, math.Float64bits(want))
		}
	})
}

// FuzzFormatFloat is the differential fuzz of the service's one float writer
// with encoding/json as the oracle: the first eight bytes of the input, read
// as a float64's bits, print as json.Marshal prints them, and are refused
// exactly where it refuses (NaN, ±Inf).
func FuzzFormatFloat(f *testing.F) {
	for _, v := range []float64{
		0, 1, 0.1, 1.0 / 3, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, math.MaxFloat64,
		1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, 1e20, 9.999999999999999e20, 1e21, 1.0000000000000001e21,
		1e22, 1e23, 5e-7, 0x1p-25, 123456789012345680, 9007199254740992, 9007199254740993, 4503599627370496.5, 0.30000000000000004,
		math.NaN(), math.Inf(1),
	} {
		for _, sign := range []float64{1, -1} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.Copysign(v, sign)))
			f.Add(b[:])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		want, err := json.Marshal(v)
		got, ok := floattext.AppendJSON(nil, v)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%v [%#016x]) = %q, %v; encoding/json %q, %v", v, math.Float64bits(v), got, ok, want, err)
		}
	})
}

// FuzzWireWindow holds the router's column window to its contract: for any
// request body that decodes, and any window [lo, hi) of its shortest vector,
// wire.Window's text decodes to entries [lo, hi) of every vector, bit for
// bit, with the body's progress.
func FuzzWireWindow(f *testing.F) {
	for _, s := range []string{
		`{"x":[[1,-2.5e3,0.1,7,8]],"progress":0.5}`,
		`{"x":[[1,2,3],[4,5,6],[7,8,9],[1e-7,5e-324,-0]]}`,
		" { \"x\" : [ [ 1 ,\n2 ,\t3 ] , [ 4,5,6 ] ] , \"progress\" : 1e-3 } ",
		`{"progress":2,"x":[[1,2],[3,4]]}`,
		`{"x":[[]]}`, `{"x":[[1]]}`, `{"x":[]}`, `{}`, `null`,
	} {
		for _, w := range [][2]uint16{{0, 0}, {0, 1}, {1, 1}, {1, 5}, {2, 0}} {
			f.Add([]byte(s), w[0], w[1])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, a, b uint16) {
		want, err := wireDecode(body)
		if err != nil {
			return
		}
		lay, err := wire.ScanRequest(body)
		if err != nil {
			t.Fatalf("a body that decodes does not scan: %v", err)
		}
		n := math.MaxInt
		for _, x := range want.X {
			n = min(n, len(x))
		}
		if len(want.X) == 0 {
			n = 0
		}
		lo := int(a) % (n + 1)
		hi := lo + int(b)%(n-lo+1)
		text := wire.Window(nil, body, lay, lo, hi)
		got, err := wireDecode(text)
		if err != nil {
			t.Fatalf("window [%d,%d) %q does not decode: %v", lo, hi, text, err)
		}
		if len(got.X) != len(want.X) {
			t.Fatalf("window holds %d vectors, the body %d", len(got.X), len(want.X))
		}
		for v := range want.X {
			if len(got.X[v]) != hi-lo {
				t.Fatalf("window vector %d holds %d entries, want %d", v, len(got.X[v]), hi-lo)
			}
			for i, x := range got.X[v] {
				if math.Float64bits(x) != math.Float64bits(want.X[v][lo+i]) {
					t.Fatalf("window vector %d entry %d = %v, want x[%d] = %v", v, i, x, lo+i, want.X[v][lo+i])
				}
			}
		}
		if (got.Progress == nil) != (want.Progress == nil) ||
			(got.Progress != nil && math.Float64bits(*got.Progress) != math.Float64bits(*want.Progress)) {
			t.Fatalf("window progress %v, body %v", got.Progress, want.Progress)
		}
	})
}
