package contenthash

import (
	"encoding/binary"
	"math/bits"
)

// Digest is a 128-bit content address.
type Digest [16]byte

// String renders the digest as 32 hex characters.
func (d Digest) String() string {
	const hexdigits = "0123456789abcdef"
	var out [32]byte
	for i, b := range d {
		out[2*i] = hexdigits[b>>4]
		out[2*i+1] = hexdigits[b&0xf]
	}
	return string(out[:])
}

// Lane-injection constants (odd, from the xxhash/splitmix family).
const (
	lane2Mult = 0xC2B2AE3D27D4EB4F
	finalMult = 0x165667B19E3779F9
	seedA     = 0x736F6D6570736575 // "somepseu"
	seedB     = 0x646F72616E646F6D // "dorandom"
)

// Hasher accumulates words into a 128-bit running state. The zero value
// is NOT a valid hasher; obtain one from New so that every key family
// carries a domain tag.
type Hasher struct {
	a, b uint64
	n    uint64 // words absorbed; folded into Sum as length framing
}

// New returns a Hasher seeded with a domain tag. Distinct tags yield
// disjoint key families, so unrelated result kinds (per-message RTA
// results, whole-resource reports, ...) can share one store without
// cross-talk.
func New(tag uint64) Hasher {
	h := Hasher{a: seedA, b: seedB}
	h.Word(tag)
	return h
}

// mix64 is the splitmix64 finalizer: a bijective full-avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Word absorbs one 64-bit word.
func (h *Hasher) Word(x uint64) {
	h.n++
	h.a = mix64(h.a ^ x)
	h.b = mix64(h.b + bits.RotateLeft64(x, 32)*lane2Mult + h.n)
}

// Int absorbs a signed integer (periods, counts, enum values).
func (h *Hasher) Int(x int64) { h.Word(uint64(x)) }

// Bool absorbs a flag.
func (h *Hasher) Bool(x bool) {
	if x {
		h.Word(1)
	} else {
		h.Word(2)
	}
}

// String absorbs a length-framed string, so consecutive strings cannot
// alias each other's boundaries.
func (h *Hasher) String(s string) {
	h.Word(uint64(len(s)))
	var w uint64
	shift := uint(0)
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << shift
		shift += 8
		if shift == 64 {
			h.Word(w)
			w, shift = 0, 0
		}
	}
	if shift > 0 {
		h.Word(w)
	}
}

// Sum finalizes a copy of the state into a Digest. The receiver is a
// value, so the hasher remains usable: callers derive chained keys by
// summing snapshots of a growing prefix.
func (h Hasher) Sum() Digest {
	a := mix64(h.a ^ h.n*finalMult ^ bits.RotateLeft64(h.b, 17))
	b := mix64(h.b ^ h.n ^ a)
	a = mix64(a ^ bits.RotateLeft64(b, 29))
	var d Digest
	binary.LittleEndian.PutUint64(d[:8], a)
	binary.LittleEndian.PutUint64(d[8:], b)
	return d
}
