package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/floattext"
)

// Span locates one vector inside a scanned body: body[Lo:Hi] is the text
// between its brackets and N the number of entries that text holds.
type Span struct {
	Lo, Hi, N int
}

// Cut returns the span, within body, of entries [lo, hi) of the vector sp
// locates there (0 ≤ lo ≤ hi ≤ sp.N): from past the comma ahead of entry lo
// to the comma behind entry hi-1, the whitespace around the entries
// included. It converts nothing; the commas are counted a block at a time
// (skipCommas). An empty range is an empty span at sp.Lo.
func (sp Span) Cut(body []byte, lo, hi int) Span {
	if lo == hi {
		return Span{Lo: sp.Lo, Hi: sp.Lo}
	}
	text := body[:sp.Hi]
	i := skipCommas(text, sp.Lo, lo) // body[i:] starts entry lo
	w := Span{Lo: i, Hi: sp.Hi, N: hi - lo}
	if hi < sp.N {
		w.Hi = skipCommas(text, i, hi-lo) - 1
	}
	return w
}

// skipBlock is how many bytes skipCommas counts at once: a few dozen
// entries, so that the walk within the last block is short.
const skipBlock = 512

var comma = []byte{','}

// skipCommas returns the offset in b past the n-th comma from b[i:], which
// holds at least n. Whole blocks that hold fewer are counted with
// bytes.Count, a vector pass; the block the n-th comma is in is walked with
// bytes.IndexByte.
func skipCommas(b []byte, i, n int) int {
	for n > 0 && len(b)-i > skipBlock {
		c := bytes.Count(b[i:i+skipBlock], comma)
		if c >= n {
			break
		}
		i += skipBlock
		n -= c
	}
	for ; n > 0; n-- {
		i += bytes.IndexByte(b[i:], ',') + 1
	}
	return i
}

// Layout is what a scan learns about a panel body without converting a
// float. Spans index the scanned body.
type Layout struct {
	// Vectors are the entries of "x" (request) or "y" (reply), in order.
	Vectors []Span
	// Tail is everything a reply says besides "y".
	Tail
	// progress spans a request's progress number when one is present.
	progress Span
}

// ScanRequest scans a panel request body. A key that is not a request field
// is an error.
func ScanRequest(body []byte) (Layout, error) {
	lay, _, _, err := scan(body, requestFields, false)
	return lay, err
}

// ScanReply scans a panel reply body. The scan itself reads "y" only: what is
// left of the object with the value of "y" blanked is small, and encoding/json
// reads it into Tail — the one declaration of those fields — ignoring, as
// json.Unmarshal does, a key Tail does not have.
func ScanReply(body []byte) (Layout, error) {
	lay, y, end, err := scan(body, replyFields, true)
	if err != nil {
		return lay, err
	}
	rest := make([]byte, 0, 256)
	rest = append(rest, body[:y.Lo]...)
	if y.Hi > y.Lo {
		rest = append(rest, "null"...)
	}
	rest = append(rest, body[y.Hi:end]...)
	if err := json.Unmarshal(rest, &lay.Tail); err != nil {
		return lay, err
	}
	return lay, nil
}

// Progress converts a scanned request's progress indicator, nil when the
// body carries none. It is the one float of a request that is not part of
// the panel; the router forwards it unread.
func (l Layout) Progress(body []byte) (*float64, error) {
	sp := l.progress
	if sp.Hi == sp.Lo {
		return nil, nil
	}
	f, end, st := floattext.ReadJSON(body[:sp.Hi], sp.Lo)
	if st != floattext.OK {
		return nil, numberErr(body, sp.Lo, end, st)
	}
	return &f, nil
}

// DecodeVector parses the text between a vector's brackets (a Span of a
// scanned body) into dst[0], dst[stride], dst[2*stride], …, which must make
// the span's N entries: stride 1 fills a plain vector, stride k one column
// of a row-major k-column panel.
func DecodeVector(text []byte, dst []float64, stride int) error {
	i := skipSpace(text, 0)
	for n := 0; n < len(dst); n += stride {
		if n > 0 {
			if i >= len(text) || text[i] != ',' {
				return syntaxErr(text, i, "after vector entry")
			}
			i = skipSpace(text, i+1)
		}
		f, end, st := floattext.ReadJSON(text, i)
		if st != floattext.OK {
			return numberErr(text, i, end, st)
		}
		dst[n] = f
		i = skipSpace(text, end)
	}
	if i != len(text) {
		return syntaxErr(text, i, "after vector entry")
	}
	return nil
}

// Floats is a []float64 whose JSON decoding goes through DecodeVector, so a
// long array of numbers (a matrix's values) is read with the panels' number
// reader: its commas are counted, one slice of that length is allocated and
// filled in place. It encodes and decodes null as a plain []float64 does,
// but null inside the array is rejected.
type Floats []float64

// UnmarshalJSON implements json.Unmarshaler. encoding/json has already
// checked b's grammar: it is one JSON value with nothing around it.
func (f *Floats) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = nil
		return nil
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return fmt.Errorf("wire: cannot read %.20q as an array of numbers", b)
	}
	text := b[1 : len(b)-1]
	n := 0
	if skipSpace(text, 0) < len(text) {
		n = bytes.Count(text, []byte{','}) + 1
	}
	v := make([]float64, n)
	if err := DecodeVector(text, v, 1); err != nil {
		return err
	}
	*f = v
	return nil
}

// ---- the parser ----

type fieldKind uint8

const (
	kindVectors fieldKind = iota
	kindProgress
)

type field struct {
	name string
	kind fieldKind
}

var (
	requestFields = []field{{"x", kindVectors}, {"progress", kindProgress}}
	replyFields   = []field{{"y", kindVectors}}
)

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// syntaxErr describes the byte at offset i (or the end of input) where what
// was expected.
func syntaxErr(b []byte, i int, what string) error {
	if i >= len(b) {
		return fmt.Errorf("unexpected end of JSON input %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", b[i], i, what)
}

// hasNull reports a null literal at b[i:].
func hasNull(b []byte, i int) bool {
	return len(b)-i >= 4 && string(b[i:i+4]) == "null"
}

// scan walks the top-level object: the keys in fields with values of their
// kind (null leaves a field at its zero value, as in encoding/json), each at
// most once. Any other key is an error, or with skipUnknown is stepped over
// unread. It stops at the closing brace and returns the offset past it, and
// where the vectors' value [[…]] sits.
func scan(b []byte, fields []field, skipUnknown bool) (lay Layout, vectors Span, end int, err error) {
	i := skipSpace(b, 0)
	if hasNull(b, i) {
		return lay, vectors, i + 4, nil
	}
	if i >= len(b) || b[i] != '{' {
		return lay, vectors, i, syntaxErr(b, i, "looking for the panel object")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return lay, vectors, i + 1, nil
	}
	var seen uint
	for {
		var key []byte
		if key, i, err = scanString(b, skipSpace(b, i)); err != nil {
			return lay, vectors, i, err
		}
		fi := 0
		for fi < len(fields) && string(key) != fields[fi].name {
			fi++
		}
		switch known := fi < len(fields); {
		case !known && !skipUnknown:
			return lay, vectors, i, fmt.Errorf("json: unknown field %q", key)
		case known && seen&(1<<fi) != 0:
			return lay, vectors, i, fmt.Errorf("duplicate field %q", key)
		case known:
			seen |= 1 << fi
		}
		if i = skipSpace(b, i); i >= len(b) || b[i] != ':' {
			return lay, vectors, i, syntaxErr(b, i, "after object key")
		}
		i = skipSpace(b, i+1)
		switch {
		case fi == len(fields):
			i, err = skipValue(b, i)
		case hasNull(b, i):
			i += 4
		case fields[fi].kind == kindVectors:
			vectors.Lo = i
			lay.Vectors, i, err = scanVectors(b, i)
			vectors.Hi = i
		default:
			// Only the grammar is the scan's business: a number out of
			// float64's range is the decoding side's error (Progress).
			lay.progress.Lo = i
			var st floattext.Status
			if _, i, st = floattext.ReadJSON(b, i); st != floattext.OK && st != floattext.OutOfRange {
				err = numberErr(b, lay.progress.Lo, i, st)
			}
			lay.progress.Hi = i
		}
		if err != nil {
			return lay, vectors, i, fmt.Errorf("field %q: %w", key, err)
		}
		i = skipSpace(b, i)
		switch {
		case i < len(b) && b[i] == ',':
			i++
		case i < len(b) && b[i] == '}':
			return lay, vectors, i + 1, nil
		default:
			return lay, vectors, i, syntaxErr(b, i, "after object key:value pair")
		}
	}
}

// skipValue returns the offset past the JSON value at b[i:], whatever it is,
// by balancing the brackets outside strings. It checks nothing else: what is
// skipped goes to encoding/json.
func skipValue(b []byte, i int) (int, error) {
	for depth := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			_, end, err := scanString(b, i)
			if err != nil {
				return end, err
			}
			if i = end - 1; depth == 0 {
				return end, nil
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i, nil // a scalar, ended by the object's own brace
			}
			if depth--; depth == 0 {
				return i + 1, nil
			}
		case ',':
			if depth == 0 {
				return i, nil
			}
		}
	}
	return i, syntaxErr(b, i, "in value")
}

// scanString reads the JSON string at b[i:] and returns its value and the
// offset past the closing quote. Plain ASCII aliases b; anything with an
// escape or a non-ASCII byte takes encoding/json's unquoting.
func scanString(b []byte, i int) (s []byte, end int, err error) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, syntaxErr(b, i, "looking for a string")
	}
	plain := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if plain {
				return b[i+1 : j], j + 1, nil
			}
			var v string
			if err := json.Unmarshal(b[i:j+1], &v); err != nil {
				return nil, i, err
			}
			return []byte(v), j + 1, nil
		case c == '\\':
			plain = false
			j++ // whatever is escaped, it does not close the string
		case c < ' ':
			return nil, j, syntaxErr(b, j, "in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, len(b), syntaxErr(b, len(b), "in string literal")
}

// numberErr is the error for the number at b[i:] that floattext.ReadJSON
// ended at end with status st: encoding/json's wording for a malformed
// number, and one of its own for a number beyond float64's range.
func numberErr(b []byte, i, end int, st floattext.Status) error {
	switch st {
	case floattext.BadInteger:
		return syntaxErr(b, end, "in numeric literal")
	case floattext.BadFraction:
		return syntaxErr(b, end, "after decimal point in numeric literal")
	case floattext.BadExponent:
		return syntaxErr(b, end, "in exponent of numeric literal")
	}
	return fmt.Errorf("number %s at offset %d does not fit a float64", b[i:end], i)
}

// scanVectors reads [[…],[…]] at b[i:]: each vector is closed by the first
// ']' after its '[' and sized by its commas. A null in place of a vector is
// an error.
func scanVectors(b []byte, i int) (vs []Span, end int, err error) {
	if i >= len(b) || b[i] != '[' {
		return nil, i, syntaxErr(b, i, "looking for an array of vectors")
	}
	vs = []Span{}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return vs, i + 1, nil
	}
	for {
		if i >= len(b) || b[i] != '[' {
			return nil, i, syntaxErr(b, i, "looking for a vector")
		}
		n := bytes.IndexByte(b[i+1:], ']')
		if n < 0 {
			return nil, len(b), syntaxErr(b, len(b), "in vector")
		}
		sp := Span{Lo: i + 1, Hi: i + 1 + n}
		text := b[sp.Lo:sp.Hi]
		if sp.N = bytes.Count(text, []byte{','}) + 1; sp.N == 1 && skipSpace(text, 0) == len(text) {
			sp.N = 0
		}
		vs = append(vs, sp)
		i = skipSpace(b, sp.Hi+1)
		switch {
		case i < len(b) && b[i] == ',':
			i = skipSpace(b, i+1)
		case i < len(b) && b[i] == ']':
			return vs, i + 1, nil
		default:
			return nil, i, syntaxErr(b, i, "after vector")
		}
	}
}
