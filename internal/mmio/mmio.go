// Package mmio reads and writes Matrix Market exchange files (the .mtx
// format the SuiteSparse collection distributes), so the library can ingest
// real matrices in place of the synthetic corpus when they are available.
//
// Supported: "matrix coordinate" with field real/integer/pattern and
// symmetry general/symmetric/skew-symmetric. Complex fields and dense
// "array" layouts are rejected with a clear error.
//
// Parse failures are reported as *ParseError carrying the input name and
// the 1-based line number, so a user staring at a 100 MB .mtx file knows
// where to look.
package mmio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/sparse"
)

// ParseError describes a malformed Matrix Market input. It records the
// input's name (the file path, or empty for anonymous streams) and the
// 1-based line number the problem was found on, so the error message is
// actionable rather than a bare "malformed entry".
type ParseError struct {
	// Name identifies the input (usually a file path); may be empty.
	Name string
	// Line is the 1-based line number of the offending line (0 when the
	// problem is not attributable to a specific line, e.g. empty input).
	Line int
	// Msg describes what is wrong with the line.
	Msg string
	// Err is the underlying cause (e.g. a strconv error), may be nil.
	Err error
}

// Error formats as "mmio: name:line: msg: cause", omitting absent parts.
func (e *ParseError) Error() string {
	var b strings.Builder
	b.WriteString("mmio: ")
	if e.Name != "" {
		b.WriteString(e.Name)
		b.WriteString(":")
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "%d", e.Line)
		b.WriteString(":")
	}
	if e.Name != "" || e.Line > 0 {
		b.WriteString(" ")
	}
	b.WriteString(e.Msg)
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// header is the parsed %%MatrixMarket banner.
type header struct {
	object   string
	layout   string
	field    string
	symmetry string
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("malformed banner %q (want %%%%MatrixMarket object layout field symmetry)", line)
	}
	return header{object: fields[1], layout: fields[2], field: fields[3], symmetry: fields[4]}, nil
}

// lineReader tracks the 1-based number of the line most recently scanned.
type lineReader struct {
	sc   *bufio.Scanner
	name string
	line int
}

func (lr *lineReader) scan() bool {
	if lr.sc.Scan() {
		lr.line++
		return true
	}
	return false
}

func (lr *lineReader) text() string { return lr.sc.Text() }

// raw is the current line without a copy; valid until the next scan.
func (lr *lineReader) raw() []byte { return lr.sc.Bytes() }

// fail builds a ParseError at the current line.
func (lr *lineReader) fail(cause error, format string, args ...any) error {
	return &ParseError{Name: lr.name, Line: lr.line, Msg: fmt.Sprintf(format, args...), Err: cause}
}

// nextField splits the first whitespace-delimited field off b, with
// strings.Fields' notion of whitespace (unicode.IsSpace, so a stray NBSP
// still separates); field is empty when b holds nothing but whitespace.
func nextField(b []byte) (field, rest []byte) {
	// Printable ASCII, nearly every byte of a numeric file, is settled by two
	// comparisons; only the rest asks spaceWidth.
	i := 0
	for i < len(b) {
		if c := b[i]; c > ' ' && c < utf8.RuneSelf {
			break
		}
		n := spaceWidth(b, i)
		if n == 0 {
			break
		}
		i += n
	}
	j := i
	for j < len(b) {
		if c := b[j]; (c <= ' ' || c >= utf8.RuneSelf) && spaceWidth(b, j) != 0 {
			break
		}
		j++ // a byte, not a rune: continuation bytes are not whitespace either
	}
	return b[i:j], b[j:]
}

// spaceWidth is the byte length of the whitespace rune at b[i], 0 if anything
// else starts there. Only non-ASCII text decodes.
func spaceWidth(b []byte, i int) int {
	c := b[i]
	if c == ' ' || ('\t' <= c && c <= '\r') {
		return 1
	}
	if c >= utf8.RuneSelf {
		if r, n := utf8.DecodeRune(b[i:]); unicode.IsSpace(r) {
			return n
		}
	}
	return 0
}

// parseIndex is strconv.Atoi with a fast path for what an index nearly always
// is, a short run of digits; everything else (a sign, an overflow, garbage)
// goes to Atoi, so every error is Atoi's.
func parseIndex(f []byte) (int, error) {
	if len(f) == 0 || len(f) > 9 {
		return strconv.Atoi(string(f))
	}
	n := 0
	for _, c := range f {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(f))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// Read parses a Matrix Market stream into a CSR matrix. Errors carry line
// numbers but no input name; use ReadNamed when a name is available.
func Read(r io.Reader) (*sparse.CSR, error) {
	return ReadNamed(r, "")
}

// ReadNamed parses a Matrix Market stream into a CSR matrix, attributing
// errors to the given input name (typically the file path).
func ReadNamed(r io.Reader, name string) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	// Lines are short, and most registrations are a few KB in all: the
	// buffer starts just large enough to make reads from a file coarse, and
	// grows to hold a line of up to 16 MiB.
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	lr := &lineReader{sc: sc, name: name}
	if !lr.scan() {
		if err := sc.Err(); err != nil {
			return nil, lr.fail(err, "reading banner")
		}
		return nil, lr.fail(nil, "empty input")
	}
	h, err := parseHeader(lr.text())
	if err != nil {
		return nil, lr.fail(nil, "%v", err)
	}
	if h.object != "matrix" {
		return nil, lr.fail(nil, "unsupported object %q (only matrix)", h.object)
	}
	if h.layout != "coordinate" {
		return nil, lr.fail(nil, "unsupported layout %q (only coordinate)", h.layout)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return nil, lr.fail(nil, "unsupported field %q (want real, integer or pattern)", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, lr.fail(nil, "unsupported symmetry %q (want general, symmetric or skew-symmetric)", h.symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !lr.scan() {
			if err := sc.Err(); err != nil {
				return nil, lr.fail(err, "reading size line")
			}
			return nil, lr.fail(nil, "missing size line")
		}
		line := strings.TrimSpace(lr.text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d %d", &rows, &cols, &nnz); err != nil {
			return nil, lr.fail(err, "malformed size line %q (want rows cols nnz)", line)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, lr.fail(nil, "negative sizes %d %d %d", rows, cols, nnz)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, lr.fail(nil, "dimensions %dx%d exceed the int32 index range", rows, cols)
	}

	// The declared nnz is untrusted input: cap the preallocation hint so a
	// header claiming billions of entries cannot allocate gigabytes before
	// a single entry line has been read. append grows past the hint if the
	// entries really do arrive.
	hint := nnz
	if hint > 1<<20 {
		hint = 1 << 20
	}
	ri := make([]int32, 0, hint)
	ci := make([]int32, 0, hint)
	vv := make([]float64, 0, hint)
	pattern := h.field == "pattern" // entries are "i j", the value an implied 1
	wantFields := 3
	if pattern {
		wantFields = 2
	}
	general, skew := h.symmetry == "general", h.symmetry == "skew-symmetric"
	read := 0
	for read < nnz {
		if !lr.scan() {
			if err := sc.Err(); err != nil {
				return nil, lr.fail(err, "reading entries")
			}
			return nil, lr.fail(nil, "expected %d entries, got %d", nnz, read)
		}
		// The line is split in place: no string per line, no slice of fields.
		// The string conversions below are arguments that do not escape.
		fi, rest := nextField(lr.raw())
		if len(fi) == 0 || fi[0] == '%' {
			continue
		}
		fj, rest := nextField(rest)
		var fv []byte
		if !pattern {
			fv, _ = nextField(rest)
		}
		if len(fj) == 0 || (!pattern && len(fv) == 0) {
			return nil, lr.fail(nil, "malformed entry %q (want %d fields)", bytes.TrimSpace(lr.raw()), wantFields)
		}
		i, err := parseIndex(fi)
		if err != nil {
			return nil, lr.fail(err, "bad row index %q", fi)
		}
		j, err := parseIndex(fj)
		if err != nil {
			return nil, lr.fail(err, "bad column index %q", fj)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, lr.fail(nil, "entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(string(fv), 64)
			if err != nil {
				return nil, lr.fail(err, "bad value %q", fv)
			}
		}
		ri = append(ri, int32(i-1))
		ci = append(ci, int32(j-1))
		vv = append(vv, v)
		if !general && i != j {
			ri = append(ri, int32(j-1))
			ci = append(ci, int32(i-1))
			if skew {
				v = -v
			}
			vv = append(vv, v)
		}
		read++
	}
	m, err := sparse.CSRFromTriplets(rows, cols, ri, ci, vv)
	if err != nil {
		return nil, fmt.Errorf("mmio: assembling matrix: %w", err)
	}
	return m, nil
}

// Write emits a matrix in "coordinate real general" form with 1-based
// indices, the most portable Matrix Market variant.
func Write(w io.Writer, m sparse.Matrix) error {
	csr, err := sparse.ToCSR(m)
	if err != nil {
		return fmt.Errorf("mmio: %w", err)
	}
	rows, cols := csr.Dims()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, cols, csr.NNZ()); err != nil {
		return fmt.Errorf("mmio: writing header: %w", err)
	}
	// One reused line buffer and strconv's appenders produce the bytes of
	// fmt's "%d %d %.17g\n" at half its cost per entry.
	line := make([]byte, 0, 64)
	for i := 0; i < rows; i++ {
		for k := csr.Ptr[i]; k < csr.Ptr[i+1]; k++ {
			line = strconv.AppendInt(line[:0], int64(i+1), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(csr.Col[k])+1, 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, csr.Data[k], 'g', 17, 64)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return fmt.Errorf("mmio: writing entry: %w", err)
			}
		}
	}
	return bw.Flush()
}
