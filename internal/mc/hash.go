package mc

import "encoding/binary"

// The fingerprint seen set: instead of keying visited states by their full
// canonical encoding (one string allocation per state), the engine keys
// them by a 128-bit hash of that encoding stored in open-addressed tables.
// States are encoded as fixed-width words (see engine.encode) and hashed
// by hash128w, which reads the words directly; hash128 is the same
// function over bytes and keys the persistent stores (ExplorationKey,
// BaselineKey). At the engine's state budgets (≤2^21 states per
// exploration) the collision probability of a 128-bit fingerprint is
// below 2^-85, far under the odds of a hardware fault; Config.ExactSeen
// retains the exact string-keyed mode as a cross-checking oracle.

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

// appendWordBytes appends the little-endian bytes of w to dst: the bytes
// hash128w hashes, and the key the exact seen sets store.
func appendWordBytes(dst []byte, w []uint64) []byte {
	for _, v := range w {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// fpEntry is one slot of the hot fingerprint tier (and the unit of a
// sealed cold-tier run): the state's fingerprint plus the sleep mask it
// has been covered for (see seenShard in seen.go). visit remaps the
// (vanishingly unlikely) all-zero fingerprint away from the hot tier's
// empty-slot marker.
type fpEntry struct {
	hi, lo uint64
	sleep  uint32
}
