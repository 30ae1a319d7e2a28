// Package floattext is the one reader and the one writer of JSON float text
// in the service: the numbers of a JSON panel (internal/wire) are read and
// printed by it, and the value field of a Matrix Market entry
// (internal/mmio) is read by it. The reader and the writer share one table,
// the powers of ten from 10^-348 to 10^347 normalised to 128 bits.
//
// ReadJSON reads a JSON number in a single pass: it checks the grammar,
// accumulates the first 19 significant digits (eight at a time where eight
// digits follow) under strconv's own mantissa, exponent and truncation
// rules, and converts with the exact-float fast path or with the
// Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per Second",
// arXiv:2101.11408). Anything the fast paths cannot certify — a mantissa
// truncated at 19 digits whose two neighbours round apart, a halfway case,
// a subnormal, an overflow, an exponent beyond ±348 — goes to
// strconv.ParseFloat. A correctly rounded conversion is unique and both fast
// paths return only a value whose rounding is certain, so every result has
// strconv.ParseFloat's bits.
//
// ParseFloat is strconv.ParseFloat(s, 64) for a byte slice, result for
// result and error for error: text in JSON's grammar takes ReadJSON, and
// everything else strconv accepts (a '+' sign, leading zeros, ".5", "inf",
// hex mantissas, underscores after a base prefix) goes to strconv itself.
//
// AppendJSON prints a float64 as encoding/json does, byte for byte, with no
// fallback: Schubfach's shortest search (Giulietti, "The Schubfach way to
// render doubles", 2020) on the same table rows plus one, and the digits
// written eight at a time straight into the destination. The shortest text
// that reads back as a float, the closest of its length with ties to even,
// is unique, and it is what strconv's search returns too.
package floattext

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"unsafe"
)

// Status says how ReadJSON's number ended.
type Status uint8

const (
	// OK: the number is well formed and fits a float64.
	OK Status = iota
	// BadInteger: no digit where the integer part begins.
	BadInteger
	// BadFraction: no digit after the decimal point.
	BadFraction
	// BadExponent: no digit in the exponent.
	BadExponent
	// OutOfRange: the number is well formed but its magnitude overflows
	// float64 (strconv.ParseFloat reports ErrRange).
	OutOfRange
)

// maxMantDigits is how many significant digits the mantissa holds:
// 10^19 < 2^64.
const maxMantDigits = 19

// ReadJSON reads the JSON number at b[i:],
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// and returns its value and the offset past it. On a syntax status end is
// the offset of the byte where a digit was expected (len(b) at the end of
// input); on OutOfRange it is the offset past the number.
func ReadJSON(b []byte, i int) (f float64, end int, st Status) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		man   uint64 // the first nm significant digits
		nm    int
		dp    int // the decimal point's place, counted from the first significant digit
		trunc bool
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		man, nm, trunc, i = digits(b, i, 0, 0)
		dp = i - j
	default:
		return 0, i, BadInteger
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if nm == 0 {
			// Zeros before the first significant digit only move the point.
			for len(b)-i >= 8 && binary.LittleEndian.Uint64(b[i:]) == eightZeros {
				i += 8
			}
			for i < len(b) && b[i] == '0' {
				i++
			}
			dp = j - i
		}
		var t bool
		man, nm, t, i = digits(b, i, man, nm)
		if i == j {
			return 0, i, BadFraction
		}
		trunc = trunc || t
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j := i
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // strconv's cap: beyond it the value is 0 or ±Inf anyway
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, i, BadExponent
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, OK
		}
		return 0, i, OK
	}
	if f, ok := convert(man, dp-nm, neg, trunc); ok {
		return f, i, OK
	}
	// The bytes are viewed as a string without a copy: strconv keeps
	// nothing of its argument, and its error is dropped here.
	f, err := strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
	if err != nil {
		return 0, i, OutOfRange
	}
	return f, i, OK
}

// ParseFloat is strconv.ParseFloat(string(b), 64): the same value and the
// same error, without the conversion's copy for text in JSON's grammar.
func ParseFloat(b []byte) (float64, error) {
	if f, end, st := ReadJSON(b, 0); st == OK && end == len(b) {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

const eightZeros = 0x3030303030303030 // "00000000" read little-endian

// digits reads the run of decimal digits at b[i:] into a mantissa that
// already holds nm digits, as strconv's readFloat does: the first 19
// significant digits are kept, and a nonzero digit after them sets trunc.
func digits(b []byte, i int, man uint64, nm int) (_ uint64, _ int, trunc bool, end int) {
	for nm <= maxMantDigits-8 && len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + eightValue(v)
		nm += 8
		i += 8
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if nm == maxMantDigits {
			break
		}
		man = man*10 + uint64(b[i]-'0')
		nm++
	}
	if nm < maxMantDigits {
		return man, nm, false, i // the run ended
	}
	// Past 19 digits a digit only counts, and says whether it is zero.
	for len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		trunc = trunc || v != eightZeros
		i += 8
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		trunc = trunc || b[i] != '0'
	}
	return man, nm, trunc, i
}

// eightDigits reports whether the eight bytes of v (read little-endian) are
// all ASCII digits.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightValue is the number eight ASCII digits spell, the first in the low
// byte of v: pairs, then quads, then the whole, in three multiplies.
func eightValue(v uint64) uint64 {
	const (
		mask = 0x000000FF000000FF
		mul1 = 100 + 1000000<<32
		mul2 = 1 + 10000<<32
	)
	v -= eightZeros
	v = v*10 + v>>8
	return ((v&mask)*mul1 + (v>>16&mask)*mul2) >> 32
}

// convert is strconv's fast path for man × 10^exp (man ≠ 0): the exact
// float64 product when man and the power are both exact, else Eisel–Lemire,
// which with a truncated mantissa must agree with the next mantissa up.
// ok false means the value needs the slow path.
func convert(man uint64, exp int, neg, trunc bool) (float64, bool) {
	if !trunc {
		if f, ok := exact(man, exp, neg); ok {
			return f, true
		}
	}
	f, ok := eiselLemire(man, exp, neg)
	if ok && trunc {
		up, okUp := eiselLemire(man+1, exp, neg)
		ok = okUp && up == f
	}
	return f, ok
}

var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exact converts when man is below 2^52 and 10^|exp| is an exact float64
// (or can lend exact zeros to man): one correctly rounded multiply or
// divide.
func exact(man uint64, exp int, neg bool) (float64, bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return 0, false
}

// eiselLemire converts man × 10^exp10 (man ≠ 0) with one or two 64×64-bit
// multiplies against the 128-bit power, and declines (ok false) when the
// truncated product leaves the rounding in doubt, the result is subnormal or
// overflows, or exp10 is outside the table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	pow := &pow10[exp10-minExp10]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	// 217706/2^16 ≈ log2(10): the binary exponent of 10^exp10, plus the bias.
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	hi, lo := bits.Mul64(man, pow[1])
	// Nine bits below the 54 kept are all ones: the low half of the power
	// could carry into them, so widen the product.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	retMan := hi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// Exactly halfway between two float64s: the round-half-even answer
	// depends on digits the truncated power dropped.
	if lo == 0 && hi&0x1FF == 0 && retMan&3 == 1 {
		return 0, false
	}
	retMan += retMan & 1
	retMan >>= 1
	if retMan>>53 > 0 {
		retMan >>= 1
		retExp2++
	}
	// Zero or below is subnormal, 0x7FF or above infinite: the slow path's.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retExp2<<52 | retMan&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// The powers of ten Eisel–Lemire multiplies by: row e-minExp10 is 10^e
// normalised to [2^127, 2^128) and rounded down, {low word, high word}. The
// range covers every exponent a float64 can need with 19 mantissa digits,
// and the 10^-292 … 10^324 the writer's shortest search multiplies by.
const (
	minExp10 = -348
	maxExp10 = 347
)

var pow10 = powersOfTen()

// powersOfTen computes the table exactly with math/big: a positive power's
// top 128 bits, and a negative power as ⌊2^(127+L) / 10^k⌋ where L is the
// bit length of 10^k, which lies in (2^127, 2^128).
func powersOfTen() *[maxExp10 - minExp10 + 1][2]uint64 {
	var t [maxExp10 - minExp10 + 1][2]uint64
	ten := big.NewInt(10)
	one := big.NewInt(1)
	row := func(e int, m *big.Int) {
		t[e-minExp10] = [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	p := big.NewInt(1) // 10^e
	m := new(big.Int)
	for e := 0; e <= maxExp10; e++ {
		if s := p.BitLen() - 128; s > 0 {
			m.Rsh(p, uint(s))
		} else {
			m.Lsh(p, uint(-s))
		}
		row(e, m)
		p.Mul(p, ten)
	}
	p.SetInt64(10) // 10^k, k = -e
	for e := -1; e >= minExp10; e-- {
		m.Lsh(one, uint(127+p.BitLen()))
		m.Quo(m, p)
		row(e, m)
		p.Mul(p, ten)
	}
	return &t
}
