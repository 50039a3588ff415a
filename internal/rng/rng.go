// Package rng is the simulator's source of per-run randomness: counter-based
// SplitMix64 streams with 8 bytes of state, derived purely from (run seed,
// stream index). It also owns the SplitMix64 finalizer, Mix64, that every
// seed derivation in the repository (trial seeds, epoch seeds, schedule
// coins, planner signatures) routes through.
//
// A run's streams are indexed as follows:
//
//	k = 0        the adversary's proc assignment (AssignStream)
//	k = 1        the adversary's View.Rng (AdversaryStream)
//	k = 1 + pid  process pid, pid in 1..n (ProcStream)
//
// Each stream is a pure function of (seed, k), so a run needs no base
// generator and no per-process seed table: setup is O(n) words.
package rng

import (
	"math"
	"math/rand"
)

// Golden is the SplitMix64 increment, 2^64 / φ rounded to odd: the stride
// of every golden-ratio seed derivation in the repository.
const Golden = 0x9e3779b97f4a7c15

// streamTag separates stream states from other golden-stride derivations of
// the same seed (engine.SeedFor in particular), so stream k of seed s never
// starts where trial k of base s does.
const streamTag uint64 = 0x73706c69746d6978 // "splitmix"

// Mix64 is the SplitMix64 finalizer: a bijective avalanche of z.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream indices of a run's fixed streams.
const (
	AssignStream    uint64 = 0
	AdversaryStream uint64 = 1
)

// ProcStream returns the stream index of process pid (1-based).
func ProcStream(pid int) uint64 { return 1 + uint64(pid) }

// SplitMix64 is a rand.Source64 with 8 bytes of state. Each call advances
// the state by the Golden increment and returns its finalized value.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a generator whose first output is Mix64(seed+Golden).
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += Golden
	return Mix64(s.state)
}

// Int63 returns the top 63 bits of the next output as a non-negative int64.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the state to seed.
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// Float64 returns a pseudo-random number in [0, 1) by rand.Rand's rule:
// Int63()/2^63, drawn again when that rounds to 1. A generator and a
// rand.New wrapping a copy of it therefore return the same Float64
// sequence.
func (s *SplitMix64) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Int63Ahead returns, without drawing, the k-th next Int63 output (k >= 1):
// the state after k draws is state + k·Golden, so any later output costs
// one Mix64.
func (s SplitMix64) Int63Ahead(k uint64) uint64 { return Mix64(s.state+k*Golden) >> 1 }

// Float64Ahead returns, without drawing, the number Float64 would start
// from at the k-th next draw (k >= 1): Int63Ahead(k)/2^63. ok is false when
// the number rounds to 1, where Float64 draws again.
func (s SplitMix64) Float64Ahead(k uint64) (f float64, ok bool) {
	f = float64(s.Int63Ahead(k)) / (1 << 63)
	return f, f < 1
}

// RoundsToOne is the least Int63 output whose Float64 number m/2^63 rounds
// to 1, where Float64 draws again: 2^63-512 lies halfway between the
// largest float64 below 2^63 and 2^63, and ties go to the even 2^63.
const RoundsToOne = 1<<63 - 512

// Int63Below returns the least Int63 output m whose Float64 number m/2^63
// is at least p, so an output's number is below p exactly when the output
// is below Int63Below(p); for p >= 1 it is RoundsToOne. Below 2^53 the
// conversion is exact and the bound is the ceiling of p·2^63. Above, where
// p·2^63 is an integer, outputs round to it from halfway to the float
// below it, or from one past that when the tie goes down, which the loop
// settles on the conversion itself.
func Int63Below(p float64) uint64 {
	if p >= 1 {
		return RoundsToOne
	}
	// The explicit conversion rounds the product, so it cannot fuse with
	// the subtraction below into one multiply-add.
	x := float64(max(p, 0) * (1 << 63))
	m := uint64(math.Ceil(x))
	if x > 1<<53 {
		m -= uint64(x-math.Nextafter(x, 0)) / 2
	}
	for float64(m)/(1<<63) < p {
		m++
	}
	return m
}

// Skip advances the state past one draw without returning it.
func (s *SplitMix64) Skip() { s.state += Golden }

// StreamValue returns stream k of the run seeded with seed as a generator
// value. The initial states of a run's streams are consecutive outputs of
// one SplitMix64 generator seeded with seed^streamTag, so distinct (seed, k)
// pairs start at pseudo-randomly scattered points of the 2^64 cycle.
func StreamValue(seed int64, k uint64) SplitMix64 {
	return SplitMix64{state: Mix64((uint64(seed) ^ streamTag) + Golden*(k+1))}
}

// Stream returns stream k of the run seeded with seed, wrapped for the
// *rand.Rand-typed simulator interfaces: the same draws as StreamValue.
func Stream(seed int64, k uint64) *rand.Rand {
	s := StreamValue(seed, k)
	return rand.New(&s)
}
