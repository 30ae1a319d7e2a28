package check

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/server"
)

// plainArrays is server.CSRArrays with val left to encoding/json: the
// oracle for wire.Floats.
type plainArrays struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Ptr  []int     `json:"ptr"`
	Col  []int32   `json:"col"`
	Val  []float64 `json:"val"`
}

// FuzzMaterializeCSR feeds any body to the csr form of a registration the
// way a shard reads it: encoding/json into server.CSRArrays (val through
// wire.Floats' number reader), then server.Materialize. Nothing panics. val
// decodes to the bits encoding/json's own []float64 decode gives, and is
// refused where encoding/json accepts only for null inside the array. An
// accepted matrix multiplies like the reference SpMV and survives its own
// export form, json.Marshal of server.ArraysOf, with the same fingerprint
// and value digest.
func FuzzMaterializeCSR(f *testing.F) {
	for _, s := range []string{
		`{"rows":2,"cols":4,"ptr":[0,2,3],"col":[0,3,1],"val":[1,-2.5e3,0.1]}`,
		`{"rows":3,"cols":3,"ptr":[0,1,1,3],"col":[2,0,1],"val":[-0,5e-324,1.7976931348623157e308]}`,
		`{"rows":1,"cols":3,"ptr":[0,3],"col":[0,1,2],"val":[1e23,2.2250738585072014e-308,123456789012345678901234567890]}`,
		`{"rows":0,"cols":0,"ptr":[0],"col":[],"val":[]}`,
		`{"rows":2,"cols":2,"ptr":[0,0,0],"col":null,"val":null}`,
		` { "rows" : 1 , "cols" : 2 , "ptr" : [ 0 , 2 ] , "col" : [ 0 , 1 ] , "val" : [ 1 ,
		2 ] } `,
		`{"rows":2,"cols":4,"ptr":[0,100,3],"col":[0,1,2],"val":[1,2,3]}`,
		`{"rows":2,"cols":4,"ptr":[0,-1,3],"col":[0,1,2],"val":[1,2,3]}`,
		`{"rows":3,"cols":4,"ptr":[0,2,1,3],"col":[0,1,2],"val":[1,2,3]}`,
		`{"rows":2,"cols":4,"ptr":[0,2],"col":[0,1],"val":[1,2]}`,
		`{"rows":1,"cols":4,"ptr":[0,2],"col":[1,1],"val":[1,2]}`,
		`{"rows":1,"cols":4,"ptr":[0,2],"col":[2,1],"val":[1,2]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[4],"val":[1]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[-1],"val":[1]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[4294967296],"val":[1]}`,
		`{"rows":1,"cols":2147483648,"ptr":[0,1],"col":[0],"val":[1]}`,
		`{"rows":-1,"cols":4,"ptr":[0],"col":[],"val":[]}`,
		`{"rows":1,"cols":4,"ptr":[0,2],"col":[0,1],"val":[1]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":[1e999]}`,
		`{"rows":1,"cols":4,"ptr":[0,2],"col":[0,1],"val":[1,null]}`,
		`{"rows":1,"cols":4,"ptr":[0,2],"col":[0,1],"val":[1,]}`,
		`{"rows":1,"cols":4,"ptr":[0,2],"col":[0,1],"val":[,1]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":[[1]]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":["1"]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":"1,2"}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":{}}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":1}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":[01]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":[NaN]}`,
		`{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":[1],"extra":true}`,
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want plainArrays
		wantErr := json.Unmarshal(data, &want)
		var got server.CSRArrays
		if err := json.Unmarshal(data, &got); err != nil {
			if wantErr == nil && !slices.Contains(valEntries(data), nil) {
				t.Fatalf("csr arrays refused (%v) where encoding/json accepts them, and not for null inside val", err)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("csr arrays accepted where encoding/json refuses them (%v)", wantErr)
		}
		if len(got.Val) != len(want.Val) || (got.Val == nil) != (want.Val == nil) {
			t.Fatalf("val holds %d entries (nil %v), encoding/json %d (nil %v)", len(got.Val), got.Val == nil, len(want.Val), want.Val == nil)
		}
		for k, v := range got.Val {
			if math.Float64bits(v) != math.Float64bits(want.Val[k]) {
				t.Fatalf("val[%d] = %v (%#x), encoding/json %v (%#x)", k, v, math.Float64bits(v), want.Val[k], math.Float64bits(want.Val[k]))
			}
		}

		a, _, err := server.Materialize(server.RegisterRequest{CSR: &got}, 0)
		if err != nil {
			return
		}
		if rows, cols := a.Dims(); rows <= 1<<12 && cols <= 1<<12 {
			if err := CheckSpMV(a, a); err != nil {
				t.Fatalf("accepted %dx%d matrix: %v", rows, cols, err)
			}
		}
		body, err := json.Marshal(server.ArraysOf(a))
		if err != nil {
			t.Fatalf("export form of an accepted matrix: %v", err)
		}
		var again server.CSRArrays
		if err := json.Unmarshal(body, &again); err != nil {
			t.Fatalf("export form does not decode: %v", err)
		}
		b, _, err := server.Materialize(server.RegisterRequest{CSR: &again}, 0)
		if err != nil {
			t.Fatalf("export form refused: %v", err)
		}
		if a.Fingerprint() != b.Fingerprint() || a.ValueDigest() != b.ValueDigest() {
			t.Fatalf("export form changed the matrix: %s/%s, then %s/%s", a.Fingerprint(), a.ValueDigest(), b.Fingerprint(), b.ValueDigest())
		}
	})
}

// valEntries is the top-level "val" array of a body encoding/json accepted,
// decoded loosely (nil for null entries).
func valEntries(data []byte) []any {
	var doc struct {
		Val []any `json:"val"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	_ = dec.Decode(&doc)
	return doc.Val
}
