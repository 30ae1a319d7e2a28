package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// blockHasher serializes little-endian words into a block and hands the hash
// whole blocks: sha256's Write costs the same bookkeeping for 4 bytes as for
// 4096, and a registration hashes every nonzero twice. The two array methods
// fill a block in one tight loop; u64 is for the header and the row lengths,
// one word a row.
type blockHasher struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

// room flushes the block if it cannot take one more word of size bytes, and
// returns how many such words fit in what is free.
func (b *blockHasher) room(size int) int {
	if len(b.buf)-b.n < size {
		b.h.Write(b.buf[:b.n])
		b.n = 0
	}
	return (len(b.buf) - b.n) / size
}

func (b *blockHasher) u64(v uint64) {
	b.room(8)
	binary.LittleEndian.PutUint64(b.buf[b.n:], v)
	b.n += 8
}

func (b *blockHasher) int32s(vs []int32) {
	for len(vs) > 0 {
		k := min(len(vs), b.room(4))
		dst := b.buf[b.n:]
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
		b.n += 4 * k
		vs = vs[k:]
	}
}

func (b *blockHasher) float64s(vs []float64) {
	for len(vs) > 0 {
		k := min(len(vs), b.room(8))
		dst := b.buf[b.n:]
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		b.n += 8 * k
		vs = vs[k:]
	}
}

// digest is "sha256:" + the first 32 hex digits (128 bits) of the stream's
// hash.
func (b *blockHasher) digest() string {
	b.h.Write(b.buf[:b.n])
	sum := b.h.Sum(nil)
	return "sha256:" + hex.EncodeToString(sum[:16])
}

// Fingerprint returns a deterministic hash of the matrix *structure* —
// dimensions, row pointers and column indices, but not the numeric values.
// Two uploads of the same sparsity pattern therefore share a fingerprint
// even when their entries differ, which is exactly the key a conversion
// cache or dedupe layer wants: T_convert and the stage-2 feature vector
// depend only on structure.
//
// The hash is computed over a fixed little-endian serialization, so it is
// stable across processes, architectures, and worker counts (the CSR arrays
// are canonical: Ptr monotone, columns sorted ascending per row, regardless
// of how many workers built them). The returned string is
// "sha256:" + the first 32 hex digits (128 bits), plenty against collision
// at any realistic registry size while keeping IDs short enough to log.
func (m *CSR) Fingerprint() string {
	b := blockHasher{h: sha256.New()}
	b.u64(uint64(m.rows))
	b.u64(uint64(m.cols))
	b.u64(uint64(len(m.Data))) // nnz, delimits the sections
	// Ptr deltas fit the stream compactly and canonically; writing the raw
	// cumulative values would hash identically-structured matrices equally
	// too, but deltas keep the serialization independent of any future
	// base-offset representation change.
	for i := 0; i < m.rows; i++ {
		b.u64(uint64(m.Ptr[i+1] - m.Ptr[i]))
	}
	b.int32s(m.Col)
	return b.digest()
}

// ValueDigest returns a deterministic hash of the numeric values alone, the
// complement of Fingerprint: two matrices with equal fingerprints AND equal
// value digests are the same matrix bit for bit. Dedup layers need both —
// structure sharing decides conversion-cache keys, but aliasing a *handle*
// onto shared storage is only sound when the entries match too. Hashing the
// IEEE-754 bit patterns (not a decimal rendering) keeps the digest exact:
// +0/-0 and distinct NaN payloads hash differently, which errs on the safe
// side for aliasing.
func (m *CSR) ValueDigest() string {
	b := blockHasher{h: sha256.New()}
	b.float64s(m.Data)
	return b.digest()
}
