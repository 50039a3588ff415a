// Package ssf implements (n,k)-strongly selective families (SSFs), the
// combinatorial selection objects used by the Strong Select broadcast
// algorithm (Section 5 of the paper).
//
// A family F of subsets of [n] is (n,k)-strongly selective if for every
// non-empty Z ⊆ [n] with |Z| <= k and every z in Z there is a set F_i with
// Z ∩ F_i = {z}.
//
// The paper uses existential families of size O(k² log n) (Erdős, Frankl,
// Füredi). This package provides the constructive Kautz–Singleton variant of
// size O(k² log² n) built from Reed–Solomon superimposed codes — which the
// paper notes costs only an extra sqrt(log n) factor in Strong Select — plus
// the trivial round-robin (n,n)-SSF, explicit families given set by set, and
// exhaustive (Verify) and sampled (VerifyRandom) selectivity checks.
package ssf

import (
	"fmt"
	"math"
	"math/rand"
)

// Family is a strongly selective family with constant-time membership tests.
// Sets are indexed 0..Size()-1 and identifiers are 1..N() as in the paper.
type Family interface {
	// N returns the universe size n.
	N() int
	// K returns the selectivity parameter k the family was built for.
	K() int
	// Size returns the number of sets in the family.
	Size() int
	// Contains reports whether id (1-based) is in the set with index set.
	Contains(set int, id int) bool
	// AppendSets appends to dst, in ascending order, the index of every set
	// that contains id (1-based), and returns the extended slice.
	AppendSets(dst []int, id int) []int
}

// Members returns the sorted members of the given set of a family; intended
// for tests and diagnostics, not the simulation hot path.
func Members(f Family, set int) []int {
	var out []int
	for id := 1; id <= f.N(); id++ {
		if f.Contains(set, id) {
			out = append(out, id)
		}
	}
	return out
}

// RoundRobin is the trivial (n,n)-SSF: n singleton sets {1}, {2}, ..., {n}.
type RoundRobin struct {
	n int
}

var _ Family = (*RoundRobin)(nil)

// NewRoundRobin returns the (n,n)-SSF of n singletons.
func NewRoundRobin(n int) (*RoundRobin, error) {
	if n < 1 {
		return nil, fmt.Errorf("round robin needs n >= 1, got %d", n)
	}
	return &RoundRobin{n: n}, nil
}

// N implements Family.
func (r *RoundRobin) N() int { return r.n }

// K implements Family; round robin isolates any subset, so k = n.
func (r *RoundRobin) K() int { return r.n }

// Size implements Family.
func (r *RoundRobin) Size() int { return r.n }

// Contains implements Family.
func (r *RoundRobin) Contains(set, id int) bool { return id-1 == set }

// AppendSets implements Family: id is only in set id-1.
func (r *RoundRobin) AppendSets(dst []int, id int) []int {
	if id < 1 || id > r.n {
		return dst
	}
	return append(dst, id-1)
}

// ReedSolomon is the Kautz–Singleton (n,k)-SSF built from a Reed–Solomon
// code over GF(q): identifier x is encoded as the degree-(m-1) polynomial
// p_x whose coefficients are the base-q digits of x-1, and the family has a
// set F_{i,σ} = { x : p_x(i) = σ } for every evaluation point i and symbol σ.
// Because two distinct polynomials of degree <= m-1 agree on at most m-1
// points and q >= (k-1)(m-1)+1, any z in a subset Z of size <= k has an
// evaluation point where it differs from all others, so F_{i,p_z(i)} isolates
// it. The family has q² sets, which is O(k² log² n).
type ReedSolomon struct {
	n, k, q, m int
}

var _ Family = (*ReedSolomon)(nil)

// NewReedSolomon builds the Kautz–Singleton (n,k)-SSF. It selects the code
// length m and prime field size q minimizing the family size q² subject to
// q^m >= n and q >= (k-1)(m-1)+1.
func NewReedSolomon(n, k int) (*ReedSolomon, error) {
	if n < 2 {
		return nil, fmt.Errorf("reed-solomon SSF needs n >= 2, got %d", n)
	}
	if k < 2 || k > n {
		return nil, fmt.Errorf("reed-solomon SSF needs 2 <= k <= n, got k=%d n=%d", k, n)
	}
	bestQ, bestM := 0, 0
	maxM := 1 + int(math.Ceil(math.Log2(float64(n))))
	for m := 2; m <= maxM; m++ {
		q := nextPrime(maxInt(kthRoot(n, m), (k-1)*(m-1)+1))
		if bestQ == 0 || q < bestQ {
			bestQ, bestM = q, m
		}
	}
	return &ReedSolomon{n: n, k: k, q: bestQ, m: bestM}, nil
}

// N implements Family.
func (f *ReedSolomon) N() int { return f.n }

// K implements Family.
func (f *ReedSolomon) K() int { return f.k }

// Size implements Family.
func (f *ReedSolomon) Size() int { return f.q * f.q }

// FieldSize returns the prime q of the underlying field (diagnostics).
func (f *ReedSolomon) FieldSize() int { return f.q }

// Contains implements Family. Set index s encodes the pair
// (evaluation point i, symbol σ) as s = i*q + σ.
func (f *ReedSolomon) Contains(set, id int) bool {
	if id < 1 || id > f.n || set < 0 || set >= f.Size() {
		return false
	}
	point := set / f.q
	symbol := set % f.q
	return f.eval(id-1, point) == symbol
}

// AppendSets implements Family: id's set at evaluation point i is
// i*q + p_id(i), one evaluation per point, so the q sets come out ascending.
func (f *ReedSolomon) AppendSets(dst []int, id int) []int {
	if id < 1 || id > f.n {
		return dst
	}
	for point := 0; point < f.q; point++ {
		dst = append(dst, point*f.q+f.eval(id-1, point))
	}
	return dst
}

// maxDigits bounds the code length m: NewReedSolomon keeps
// m <= 1+ceil(log2 n), which is at most 64 for any int n.
const maxDigits = 64

// eval evaluates the polynomial of codeword x at the given point via
// Horner's rule on the base-q digits of x, held in a stack array.
func (f *ReedSolomon) eval(x, point int) int {
	var digits [maxDigits]int
	for i := 0; i < f.m; i++ {
		digits[i] = x % f.q
		x /= f.q
	}
	acc := 0
	for i := f.m - 1; i >= 0; i-- {
		acc = (acc*point + digits[i]) % f.q
	}
	return acc
}

// Explicit is a family given by explicit membership bitsets. It backs
// hand-built families in tests.
type Explicit struct {
	n, k int
	sets []bitset
}

var _ Family = (*Explicit)(nil)

// NewExplicit builds an explicit family from 1-based member lists. The
// claimed selectivity k is recorded but not verified; use Verify.
func NewExplicit(n, k int, sets [][]int) (*Explicit, error) {
	if n < 1 {
		return nil, fmt.Errorf("explicit family needs n >= 1, got %d", n)
	}
	e := &Explicit{n: n, k: k, sets: make([]bitset, len(sets))}
	for i, members := range sets {
		e.sets[i] = newBitset(n)
		for _, id := range members {
			if id < 1 || id > n {
				return nil, fmt.Errorf("set %d: member %d out of [1,%d]", i, id, n)
			}
			e.sets[i].set(id - 1)
		}
	}
	return e, nil
}

// N implements Family.
func (e *Explicit) N() int { return e.n }

// K implements Family.
func (e *Explicit) K() int { return e.k }

// Size implements Family.
func (e *Explicit) Size() int { return len(e.sets) }

// Contains implements Family.
func (e *Explicit) Contains(set, id int) bool {
	if set < 0 || set >= len(e.sets) || id < 1 || id > e.n {
		return false
	}
	return e.sets[set].get(id - 1)
}

// AppendSets implements Family by testing every set.
func (e *Explicit) AppendSets(dst []int, id int) []int {
	for set := range e.sets {
		if e.Contains(set, id) {
			dst = append(dst, set)
		}
	}
	return dst
}

// New returns the smallest available verified-by-construction (n,k)-SSF:
// the Kautz–Singleton family if it is smaller than n sets, otherwise the
// round-robin family (which is an (n,k)-SSF for every k <= n). This mirrors
// the paper's size bound O(min{n, k² log n}) with the constructive log²
// variant.
func New(n, k int) (Family, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	rr, err := NewRoundRobin(n)
	if err != nil {
		return nil, err
	}
	if k < 2 || n < 4 {
		return rr, nil
	}
	rs, err := NewReedSolomon(n, k)
	if err != nil {
		return nil, err
	}
	if rs.Size() < rr.Size() {
		return rs, nil
	}
	return rr, nil
}

// Verify exhaustively checks the (n,k)-strong selectivity property. Its cost
// is C(n,k) subset enumerations, so it is feasible only for small n and k.
// It returns nil if the property holds and a descriptive error for the first
// violated subset otherwise.
func Verify(f Family, k int) error {
	n := f.N()
	if k > n {
		return fmt.Errorf("k=%d exceeds n=%d", k, n)
	}
	// Precompute, for each id, the bitset of sets containing it.
	size := f.Size()
	containing := make([]bitset, n+1)
	for id := 1; id <= n; id++ {
		containing[id] = newBitset(size)
		for s := 0; s < size; s++ {
			if f.Contains(s, id) {
				containing[id].set(s)
			}
		}
	}
	subset := make([]int, 0, k)
	var rec func(start int) error
	rec = func(start int) error {
		if len(subset) >= 1 {
			if err := checkSubset(containing, subset, size); err != nil {
				return err
			}
		}
		if len(subset) == k {
			return nil
		}
		for id := start; id <= n; id++ {
			subset = append(subset, id)
			if err := rec(id + 1); err != nil {
				return err
			}
			subset = subset[:len(subset)-1]
		}
		return nil
	}
	return rec(1)
}

// VerifyRandom checks strong selectivity on `trials` random subsets of size
// at most k. It can only find violations, never certify the property.
func VerifyRandom(f Family, k, trials int, rng *rand.Rand) error {
	n := f.N()
	size := f.Size()
	containing := make([]bitset, n+1)
	for id := 1; id <= n; id++ {
		containing[id] = newBitset(size)
		for s := 0; s < size; s++ {
			if f.Contains(s, id) {
				containing[id].set(s)
			}
		}
	}
	for t := 0; t < trials; t++ {
		sz := 1 + rng.Intn(k)
		perm := rng.Perm(n)
		subset := make([]int, sz)
		for i := 0; i < sz; i++ {
			subset[i] = perm[i] + 1
		}
		if err := checkSubset(containing, subset, size); err != nil {
			return err
		}
	}
	return nil
}

// checkSubset verifies that every element of subset is isolated by some set:
// a set containing z but no other member exists iff
// containing[z] AND NOT(union of containing[y] for y != z) is non-empty.
func checkSubset(containing []bitset, subset []int, size int) error {
	for _, z := range subset {
		rest := newBitset(size)
		for _, y := range subset {
			if y != z {
				rest.orInto(containing[y])
			}
		}
		if !containing[z].intersectsComplement(rest) {
			return fmt.Errorf("no set isolates %d within subset %v", z, subset)
		}
	}
	return nil
}

// bitset is a minimal fixed-size bitset.
type bitset []uint64

func newBitset(bits int) bitset { return make(bitset, (bits+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) orInto(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// intersectsComplement reports whether b AND NOT(other) is non-empty.
func (b bitset) intersectsComplement(other bitset) bool {
	for i := range b {
		if b[i]&^other[i] != 0 {
			return true
		}
	}
	return false
}

// nextPrime returns the smallest prime >= x.
func nextPrime(x int) int {
	if x <= 2 {
		return 2
	}
	for p := x; ; p++ {
		if isPrime(p) {
			return p
		}
	}
}

func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return false
		}
	}
	return true
}

// kthRoot returns the smallest q with q^m >= n.
func kthRoot(n, m int) int {
	q := int(math.Floor(math.Pow(float64(n), 1/float64(m))))
	if q < 2 {
		q = 2
	}
	for pow(q, m) < n {
		q++
	}
	return q
}

func pow(q, m int) int {
	r := 1
	for i := 0; i < m; i++ {
		if r > 1<<40 { // avoid overflow; already >= any practical n
			return r
		}
		r *= q
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
