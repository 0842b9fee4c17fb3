package mc

import "encoding/binary"

// The fingerprint seen set keys visited states by a 128-bit fingerprint
// stored in open-addressed tables instead of their full canonical encoding
// (one string allocation per state). The fingerprint is a sum, so a
// transition updates it by what it changed instead of re-encoding and
// rehashing the whole state (incremental hashing: Nguyen and Ruys,
// "Incremental Hashing for SPIN", SPIN 2008).
//
// Each state carries position-keyed components, all 128-bit hashes by
// hash128w of fixed-width words:
//
//   - each nonzero memory word contributes memComp(addr, val), the hash
//     of its address and value; a zero word contributes nothing, so
//     Alloca and Malloc growth changes no component;
//   - each thread contributes the hash of its id followed by the words
//     engine.encode gives the thread (done flag, buffer length and frame
//     count; buffered pairs; per frame its positions and live registers).
//
// The state keeps their sum, lane by lane mod 2^64. A transition subtracts
// the components of the words in its write set before it fires and adds
// them back after, and recomputes the components of the threads that
// moved: the one that fired, the ones normalize stepped, any it spawned.
// The fingerprint is hash128w of four words: the failed flag with the
// memory size, the thread count, and the two lanes of the sum.
//
// Collisions. Header, memory and threads together determine the state,
// since every component is keyed by its position, so two distinct states
// with the same header differ in at least one component. Modelling
// hash128w as a random function, each lane of the difference of their
// sums is then uniform, and the sums agree with probability 2^-128; the
// final hash of the four words collides with probability 2^-128 more. At
// the engine's state budgets (≤2^21 states per exploration, so under 2^41
// pairs) the probability of any collision is below 2^41 · 2^-127 = 2^-86,
// far under the odds of a hardware fault. A position appears at most once
// in a sum, so no component can cancel itself, as it would under XOR.
// Config.ExactSeen retains the exact string-keyed mode, keyed by
// engine.encode, as a cross-checking oracle. hash128 is hash128w over bytes
// and keys the persistent stores (ExplorationKey, BaselineKey); the
// fingerprint itself is never persisted.

// h128 is a 128-bit state fingerprint.
type h128 struct{ hi, lo uint64 }

func rotl64(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// mixK1 and mixK2 scramble the first and the second word of a block.
func mixK1(k1 uint64) uint64 { return rotl64(k1*0x87c37b91114253d5, 31) * 0x4cf5ad432745937f }
func mixK2(k2 uint64) uint64 { return rotl64(k2*0x4cf5ad432745937f, 33) * 0x87c37b91114253d5 }

// finish folds in the input's length in bytes and finalizes the state.
func finish(h1, h2 uint64, n int) h128 {
	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h128{hi: h1, lo: h2}
}

// hash128 is MurmurHash3 x64/128 over b. It is not cryptographic — the
// inputs are canonical encodings produced by the engine itself, so
// adversarial collisions are not a concern, only accidental ones.
func hash128(b []byte) h128 {
	var h1, h2 uint64
	n := len(b)
	for ; len(b) >= 16; b = b[16:] {
		h1 = rotl64(h1^mixK1(binary.LittleEndian.Uint64(b)), 27) + h2
		h1 = h1*5 + 0x52dce729
		h2 = rotl64(h2^mixK2(binary.LittleEndian.Uint64(b[8:])), 31) + h1
		h2 = h2*5 + 0x38495ab5
	}
	// The tail is read as two zero-padded little-endian words, each mixed
	// in only if it holds input bytes.
	var tail [16]byte
	copy(tail[:], b)
	if len(b) > 8 {
		h2 ^= mixK2(binary.LittleEndian.Uint64(tail[8:]))
	}
	if len(b) > 0 {
		h1 ^= mixK1(binary.LittleEndian.Uint64(tail[:]))
	}
	return finish(h1, h2, n)
}

// hash128w is hash128 over the little-endian bytes of w, without
// materializing them: every 16-byte block is a pair of words, and an odd
// last word is an 8-byte tail.
func hash128w(w []uint64) h128 {
	var h1, h2 uint64
	n := 8 * len(w)
	for ; len(w) >= 2; w = w[2:] {
		h1 = rotl64(h1^mixK1(w[0]), 27) + h2
		h1 = h1*5 + 0x52dce729
		h2 = rotl64(h2^mixK2(w[1]), 31) + h1
		h2 = h2*5 + 0x38495ab5
	}
	if len(w) == 1 {
		h1 ^= mixK1(w[0])
	}
	return finish(h1, h2, n)
}

// memComp is the fingerprint component of memory word addr holding v.
func memComp(addr, v int64) h128 {
	w := [2]uint64{uint64(addr), uint64(v)}
	return hash128w(w[:])
}

// add and sub are lane-wise sums and differences mod 2^64.
func (h h128) add(o h128) h128 { return h128{hi: h.hi + o.hi, lo: h.lo + o.lo} }
func (h h128) sub(o h128) h128 { return h128{hi: h.hi - o.hi, lo: h.lo - o.lo} }

// appendWordBytes appends the little-endian bytes of w to dst: the bytes
// hash128w hashes, and the key the exact seen sets store.
func appendWordBytes(dst []byte, w []uint64) []byte {
	for _, v := range w {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// fpEntry is one slot of a seen-set table: the state's fingerprint plus
// the sleep mask it has been covered for (see seenShard in seen.go).
type fpEntry struct {
	hi, lo uint64
	sleep  uint32
}
