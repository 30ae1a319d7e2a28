package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unsafe"
)

// Span locates one vector inside a scanned body: body[Lo:Hi] is the text
// between its brackets and N the number of entries that text holds.
type Span struct {
	Lo, Hi, N int
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
	f, err := parseFloat(body[sp.Lo:sp.Hi], sp.Lo)
	if err != nil {
		return nil, err
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
		end, err := scanNumber(text, i)
		if err != nil {
			return err
		}
		if dst[n], err = parseFloat(text[i:end], i); err != nil {
			return err
		}
		i = skipSpace(text, end)
	}
	if i != len(text) {
		return syntaxErr(text, i, "after vector entry")
	}
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
			lay.progress.Lo = i
			i, err = scanNumber(b, i)
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

// scanNumber checks the JSON number grammar at b[i:] and returns the offset
// past it: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
func scanNumber(b []byte, i int) (int, error) {
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return i, syntaxErr(b, i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return i, syntaxErr(b, i, "after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return i, syntaxErr(b, i, "in exponent of numeric literal")
		}
	}
	return i, nil
}

// parseFloat converts a grammar-checked number; off locates it in messages
// (relative to whatever slice the caller scanned).
// The conversion is the one encoding/json performs, so the value is
// bit-identical, and like it a number beyond float64's range is an error.
func parseFloat(num []byte, off int) (float64, error) {
	// strconv does not retain its argument (errors clone it), so the bytes
	// can be viewed as a string without the copy string(num) would make.
	f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(num), len(num)), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d does not fit a float64", num, off)
	}
	return f, nil
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
