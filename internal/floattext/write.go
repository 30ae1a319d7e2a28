package floattext

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// writeRoom is what AppendJSON writes into past the end of dst: the longest
// text (-0.0000012345678901234567, 25 bytes) and the slack of its 8-byte
// loads and stores, which may run past the text's end before it is cut to
// length.
const writeRoom = 40

// AppendJSON appends f exactly as encoding/json prints a float64 and reports
// true, or appends nothing and reports false for NaN and ±Inf, which JSON
// cannot carry. The text is the shortest decimal that reads back as f (the
// closest one of that length, ties to even), in %f form for magnitudes in
// [1e-6, 1e21) and zero, and in %e form outside it, with the exponent
// printed as encoding/json prints it: "1e-7", "1e+21". Like append it
// writes into dst's spare capacity, and it may leave bytes there past the
// text, up to writeRoom of them.
func AppendJSON(dst []byte, f float64) ([]byte, bool) {
	u := math.Float64bits(f)
	if u>>52&0x7FF == 0x7FF {
		return dst, false
	}
	if cap(dst)-len(dst) < writeRoom {
		var buf [writeRoom]byte
		return append(dst, buf[:format(buf[:], u)]...), true
	}
	n := len(dst)
	return dst[:n+format(dst[n:n+writeRoom], u)], true
}

// format writes the text of the finite float64 with bits u at the start of b
// (len(b) = writeRoom) and returns its length.
func format(b []byte, u uint64) int {
	b[0] = '-' // kept only when the sign bit is set: no branch on the sign
	p := int(u >> 63)
	be, m := int(u>>52&0x7FF), u&(1<<52-1)
	if be == 0 && m == 0 {
		b[p] = '0'
		return p + 1
	}
	s, k := shortest(be, m)

	// s is written with its trailing zeros (nd digits, the first nt of them
	// the text's), and the value is 0.d₁d₂…d_nd × 10^dp. %e form is dp ≤ -6 or dp ≥ 22: the
	// shortest text of a float below 1e-6 (or at least 1e21) is itself below
	// 10^-6 (at least 10^21), since 1e-6's own shortest text is 0.000001 and
	// 1e21 is exact.
	nd := decimalLen(s)
	dp := nd + k
	switch {
	case dp <= -6 || dp >= 22:
		// d[.ddd]e±x: the digits go one place right, then the first moves
		// back in front of the point.
		nt := nd - putDigits(b[p+1:], s, nd)
		b[p] = b[p+1]
		end := p + 1
		if nt > 1 {
			b[p+1] = '.'
			end = p + nt + 1
		}
		return putExponent(b, end, dp-1)
	case dp <= 0:
		// 0.000ddd: at most five zeros follow the point.
		binary.LittleEndian.PutUint64(b[p:], zeroPoint)
		q := p + 2 - dp
		return q + nd - putDigits(b[q:], s, nd)
	}
	nt := nd - putDigits(b[p:], s, nd)
	if dp >= nt {
		// An integer: its digits, then zeros up to the point.
		for i := p + nd; i < p+dp; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], eightZeros)
		}
		return p + dp
	}
	// d₁…d_dp.d_dp+1…: the fraction's digits (at most 16) move one place
	// right, a word or two at a time.
	i := p + dp
	lo, hi := binary.LittleEndian.Uint64(b[i:]), binary.LittleEndian.Uint64(b[i+8:])
	b[i] = '.'
	binary.LittleEndian.PutUint64(b[i+1:], lo)
	if nt-dp > 8 {
		binary.LittleEndian.PutUint64(b[i+9:], hi)
	}
	return p + nt + 1
}

// zeroPoint is "0.000000" read little-endian.
const zeroPoint = eightZeros&^0xFF00 | '.'<<8

// shortest returns the shortest decimal s × 10^k (s possibly with trailing
// zeros) that rounds to the positive finite float64 of biased exponent be and
// fraction m, the closest one of that length, ties to even: Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020), in the 128-bit
// form of its C++ ports.
func shortest(be int, m uint64) (s uint64, k int) {
	c, q := m, -1074 // the value is c × 2^q
	if be != 0 {
		c |= 1 << 52
		q = be - 1075
		// An integer below 2^53: its own digits are the shortest text, for
		// the integers around it are floats too.
		if -52 <= q && q <= 0 && c&(1<<-q-1) == 0 {
			return c >> -q, 0
		}
	}
	// The rounding interval of c × 2^q is [cbl, cbr] × 2^q / 4, its ends
	// included when c is even. It is lopsided at a power of two: the float
	// below is a quarter of the way down instead of half.
	closer := m == 0 && be > 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	// k = ⌊log10(2^q)⌋, or ⌊log10(¾ 2^q)⌋ when the lower end is closer.
	kq := q * 1262611
	if closer {
		cbl++
		kq -= 524031
	}
	k = kq >> 22
	// g is 10^-k scaled into [2^127, 2^128) and rounded down, plus one: the
	// reader's table row plus one, so that g·x/2^128 overestimates the exact
	// product by less than x/2^128. h (1 to 4) makes cb<<h × g / 2^128 the
	// interval's points times 10^-k.
	row := &pow10[-k-minExp10]
	g0, carry := bits.Add64(row[0], 1, 0)
	g1 := row[1] + carry
	h := uint(q + (-k*1741647)>>19 + 1)
	vbl := roundToOdd(g1, g0, cbl<<h)
	vb := roundToOdd(g1, g0, cb<<h)
	vbr := roundToOdd(g1, g0, cbr<<h)
	lower, upper := vbl, vbr
	if c&1 != 0 {
		lower++
		upper--
	}

	// At most one multiple of 10^(k+1) lies in the interval; if one does, it
	// is the shortest text.
	s = vb >> 2
	if s >= 10 {
		sp := s / 10
		uIn := lower <= 40*sp
		wIn := 40*sp+40 <= upper
		if uIn != wIn {
			if wIn {
				sp++
			}
			return sp, k + 1
		}
	}
	// Else of the two multiples of 10^k around the value, the one inside, or
	// the closer when both are, ties to even.
	uIn := lower <= 4*s
	wIn := 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g·x / 2^128⌋, its lowest bit set unless the exact
// product it stands for (x times the power g rounds up) is an integer:
// Schubfach's rounding to odd. g exceeds the power by less than one, so g·x
// exceeds the exact product by less than x < 2^64, and its low word is never
// formed: a middle word of 2 or more proves a fraction, and Schubfach shows
// that below that the exact product is the integer in the top word.
func roundToOdd(g1, g0, x uint64) uint64 {
	x1, _ := bits.Mul64(g0, x)
	y1, y0 := bits.Mul64(g1, x)
	z, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if z > 1 {
		y1 |= 1
	}
	return y1
}

// decimalLen is the number of decimal digits of 0 < v < 10^17.
func decimalLen(v uint64) int {
	t := bits.Len64(v) * 1233 >> 12 // ⌊log10(2^len)⌋, at most one short
	if v >= pow10u[t] {
		t++
	}
	return t
}

var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// putDigits writes the nd decimal digits of s (10^(nd-1) ≤ s < 10^17) at the
// start of b, eight at a time, and returns how many of them are trailing
// zeros. It may write zeros up to eight bytes past the digits.
func putDigits(b []byte, s uint64, nd int) (tz int) {
	if nd <= 8 {
		d := digits8(uint32(s))
		binary.LittleEndian.PutUint64(b, d>>(64-8*nd)+eightZeros)
		return bits.LeadingZeros64(d) >> 3
	}
	// The high part has at most nine digits; its first is written alone.
	a := s / 1e8
	lo := digits8(uint32(s - a*1e8))
	top := uint32(a) / 1e8
	hi := digits8(uint32(a) - top*1e8)
	i := nd - 16
	if i > 0 {
		b[0] = byte('0' + top)
		binary.LittleEndian.PutUint64(b[1:], hi+eightZeros)
	} else {
		binary.LittleEndian.PutUint64(b, hi>>(-8*i)+eightZeros)
	}
	binary.LittleEndian.PutUint64(b[nd-8:], lo+eightZeros)
	switch {
	case lo != 0:
		return bits.LeadingZeros64(lo) >> 3
	case hi != 0:
		return 8 + bits.LeadingZeros64(hi)>>3
	}
	return 16
}

// digits8 returns the eight decimal digits of v < 10^8, leading zeros
// included, as byte values, the first in the low byte: v splits into two
// halves of four digits, each half into two pairs, each pair into two
// digits, every split done on all lanes of the word at once with a multiply
// by a reciprocal.
func digits8(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32   // abcd, efgh
	h := x * 5243 >> 19 & 0x0000007F0000007F // ab, ef: n/100 = n·5243 >> 19 for n < 43699
	x = h | (x-h*100)<<16                    // ab, cd, ef, gh
	t := x * 103 >> 10 & 0x000F000F000F000F  // tens: n/10 = n·103 >> 10 for n < 179
	return t | (x-t*10)<<8
}

// putExponent writes "e-7" or "e+21" at b[i:] for the decimal exponent e
// (7 ≤ |e| ≤ 324) and returns the offset past it.
func putExponent(b []byte, i, e int) int {
	b[i] = 'e'
	b[i+1] = '+'
	if e < 0 {
		b[i+1] = '-'
		e = -e
	}
	i += 2
	if e >= 100 {
		b[i] = byte('0' + e/100)
		e %= 100
		i++
	} else if e < 10 {
		b[i] = byte('0' + e)
		return i + 1
	}
	b[i] = pairs[2*e]
	b[i+1] = pairs[2*e+1]
	return i + 2
}

const pairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"
