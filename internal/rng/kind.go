package rng

import "math/rand"

// Kind selects a generator family.
type Kind int

// Generator families available from New and NewSource.
const (
	KindXoshiro Kind = iota + 1
	KindMT19937
	KindSplitMix
)

// NewSource returns a concrete generator of the given kind seeded
// directly with seed. Callers that derive their own seeds (e.g. the
// simulation harness's deriveSeed) use this to build a generator per
// derived seed; Kind zero values fall back to xoshiro256**.
func NewSource(kind Kind, seed uint64) Source {
	switch kind {
	case KindMT19937:
		// MT19937's plain seeding is 32-bit; inject both words through
		// init_by_array so distinct 64-bit derived seeds yield distinct
		// key material rather than folding (and possibly colliding) in
		// a 32-bit space.
		m := NewMT19937(0)
		m.SeedBySlice([]uint32{uint32(seed), uint32(seed >> 32)})
		return m
	case KindSplitMix:
		return NewSplitMix64(seed)
	default:
		return NewXoshiro256(seed)
	}
}

// New returns a generator of the given kind for a user-facing seed. The
// seed first passes through one SplitMix64 step, so small or related
// seeds (1, 2, 3, ...) still give well-mixed generator states.
func New(kind Kind, seed uint64) rand.Source64 {
	return NewSource(kind, NewSplitMix64(seed).Uint64())
}
