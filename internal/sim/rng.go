package sim

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// RNG is a deterministic SplitMix64 pseudo-random generator. It is tiny,
// allocation-free, and — unlike math/rand's global source — completely
// reproducible across runs and Go versions, which the experiment harness
// relies on.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// bounded sampling with rejection, so every value is exactly equally
// likely (a plain Uint64()%n is biased toward small values whenever n is
// not a power of two). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		// Reject the sliver of the 64-bit range that maps unevenly:
		// thresh = 2^64 mod n; draws whose low product word falls below
		// it are redrawn. At most one retry is expected for any n.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value via Box–Muller.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent generator; useful for giving each simulated
// entity its own stream without coupling their sequences.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xdeadbeefcafef00d)
}

// KeyedSeed derives a child seed from a root seed and a key: FNV-1a over
// the key, XORed into the root, feeds one Split. The seed is a pure
// function of (root, key) — independent of worker count, execution order
// and every other key — so a suite keyed by experiment ID, or a sharded
// run keyed by partition, reproduces each job's result on its own.
func KeyedSeed(root uint64, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return NewRNG(root ^ h.Sum64()).Split().Uint64()
}
