// Package detrand is the repository's one keyed-randomness primitive: a
// word-mixing hash that turns a measurement's coordinates into a key, and
// a splitmix64 generator seeded from that key in O(1).
//
// Key contract: every keyed draw hashes Hash(seed, salt, entity…, time),
// where salt names the draw family (ping vs traceroute, fault kind, …) and
// the entity words carry direction explicitly — (src, dst) and (dst, src)
// are different keys. A draw is then a pure function of its coordinates,
// so campaigns produce identical bytes at any worker count and across
// crash and resume.
//
// Generators are plain values: seeding one is a single word store, so a
// per-measurement generator needs no pool and no heap allocation.
package detrand

import (
	"math"
	"math/bits"
)

// golden is the splitmix64 increment (2^64 / φ).
const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 finaliser: a bijection on 64-bit words whose
// output bits each depend on every input bit.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// absorb folds one word into a running key through a full finaliser
// round.
func absorb(h, w uint64) uint64 { return mix((h + golden) ^ w) }

// Hash folds words into one key. It is sensitive to word order and count:
// Hash(a, b) ≠ Hash(b, a) and Hash(a) ≠ Hash(a, 0).
func Hash(words ...uint64) uint64 {
	h := uint64(0)
	for _, w := range words {
		h = absorb(h, w)
	}
	return h
}

// String folds a name into one key word, eight bytes at a time, with its
// length as the final word so that trailing zero bytes still count.
func String(s string) uint64 {
	h, size := uint64(0), uint64(len(s))
	for len(s) > 0 {
		var w uint64
		n := min(len(s), 8)
		for i := n - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = absorb(h, w)
		s = s[n:]
	}
	return absorb(h, size)
}

// Rand is a splitmix64 generator. The zero value is a valid generator;
// New seeds one from a key. Copying a Rand forks its stream.
type Rand struct{ s uint64 }

// New returns the generator for key (typically a Hash of the draw's
// coordinates).
func New(key uint64) Rand { return Rand{s: key} }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.s += golden
	return mix(r.s)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int {
	if n <= 0 {
		panic("detrand: IntN with n <= 0")
	}
	// Lemire's multiply-and-reject: unbiased, one draw in the common case.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// NormFloat64 returns a standard normal value (Marsaglia's polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential value with rate 1 (mean 1).
func (r *Rand) ExpFloat64() float64 { return -math.Log(1 - r.Float64()) }
