package ssf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundRobinIsStronglySelective(t *testing.T) {
	f, err := NewRoundRobin(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(f, 8); err != nil {
		t.Fatalf("round robin must be (n,n)-SSF: %v", err)
	}
}

func TestRoundRobinMembership(t *testing.T) {
	f, err := NewRoundRobin(5)
	if err != nil {
		t.Fatal(err)
	}
	for set := 0; set < 5; set++ {
		members := Members(f, set)
		if len(members) != 1 || members[0] != set+1 {
			t.Errorf("set %d = %v, want {%d}", set, members, set+1)
		}
	}
}

func TestRoundRobinRejectsZero(t *testing.T) {
	if _, err := NewRoundRobin(0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestReedSolomonSmallExhaustive(t *testing.T) {
	cases := []struct{ n, k int }{
		{8, 2}, {12, 2}, {12, 3}, {16, 2}, {16, 3}, {20, 2}, {20, 3},
	}
	for _, c := range cases {
		f, err := NewReedSolomon(c.n, c.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if err := Verify(f, c.k); err != nil {
			t.Errorf("n=%d k=%d: %v", c.n, c.k, err)
		}
	}
}

func TestReedSolomonRandomizedCheckLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ n, k int }{
		{100, 4}, {256, 8}, {1024, 8}, {1024, 16},
	}
	for _, c := range cases {
		f, err := NewReedSolomon(c.n, c.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if err := VerifyRandom(f, c.k, 300, rng); err != nil {
			t.Errorf("n=%d k=%d: %v", c.n, c.k, err)
		}
	}
}

func TestReedSolomonSizeBound(t *testing.T) {
	// Size must be O(k² log² n): check against a generous constant.
	for _, c := range []struct{ n, k int }{{64, 2}, {256, 4}, {1024, 8}, {4096, 16}} {
		f, err := NewReedSolomon(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		logN := math.Log2(float64(c.n))
		bound := 16 * float64(c.k*c.k) * logN * logN
		if float64(f.Size()) > bound {
			t.Errorf("n=%d k=%d: size %d exceeds 16·k²·log²n = %.0f", c.n, c.k, f.Size(), bound)
		}
	}
}

func TestReedSolomonParamValidation(t *testing.T) {
	if _, err := NewReedSolomon(1, 1); err == nil {
		t.Fatal("expected error for n=1")
	}
	if _, err := NewReedSolomon(10, 1); err == nil {
		t.Fatal("expected error for k=1")
	}
	if _, err := NewReedSolomon(10, 11); err == nil {
		t.Fatal("expected error for k>n")
	}
}

func TestReedSolomonDistinctCodewords(t *testing.T) {
	f, err := NewReedSolomon(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct ids must have distinct evaluation vectors.
	seen := make(map[string]int)
	for id := 1; id <= 50; id++ {
		key := ""
		for p := 0; p < f.FieldSize(); p++ {
			key += string(rune('a' + f.eval(id-1, p)%26))
			key += string(rune('0' + f.eval(id-1, p)/26))
		}
		if prev, ok := seen[key]; ok {
			t.Fatalf("ids %d and %d share a codeword", prev, id)
		}
		seen[key] = id
	}
}

func TestNewPicksSmallest(t *testing.T) {
	// For k close to n, round robin (size n) must win.
	f, err := New(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 32 {
		t.Fatalf("New(32,32).Size() = %d, want 32 (round robin)", f.Size())
	}
	// For small k and large n, Reed-Solomon must win.
	f, err = New(1<<14, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() >= 1<<14 {
		t.Fatalf("New(16384,2).Size() = %d, want < n", f.Size())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := New(4, 5); err == nil {
		t.Fatal("expected error for k>n")
	}
}

func TestExplicitFamily(t *testing.T) {
	// Hand-built (4,2)-SSF.
	sets := [][]int{{1}, {2}, {3}, {4}}
	f, err := NewExplicit(4, 2, sets)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(f, 2); err != nil {
		t.Fatal(err)
	}
	if !f.Contains(0, 1) || f.Contains(0, 2) {
		t.Fatal("membership mismatch")
	}
}

func TestExplicitRejectsBadMember(t *testing.T) {
	if _, err := NewExplicit(4, 2, [][]int{{5}}); err == nil {
		t.Fatal("expected error for out-of-range member")
	}
	if _, err := NewExplicit(4, 2, [][]int{{0}}); err == nil {
		t.Fatal("expected error for member 0")
	}
}

func TestVerifyDetectsViolation(t *testing.T) {
	// Family where ids 1 and 2 always appear together: not (n,2)-selective.
	sets := [][]int{{1, 2}, {3}, {1, 2, 3}}
	f, err := NewExplicit(3, 2, sets)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(f, 2); err == nil {
		t.Fatal("Verify must reject a family that never isolates 1 from 2")
	}
}

func TestVerifyRandomDetectsViolation(t *testing.T) {
	sets := [][]int{{1, 2}}
	f, err := NewExplicit(2, 2, sets)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := VerifyRandom(f, 2, 200, rng); err == nil {
		t.Fatal("VerifyRandom must find the violation in a 2-element universe")
	}
}

func TestNextPrime(t *testing.T) {
	cases := [][2]int{{0, 2}, {2, 2}, {3, 3}, {4, 5}, {14, 17}, {90, 97}}
	for _, c := range cases {
		if got := nextPrime(c[0]); got != c[1] {
			t.Errorf("nextPrime(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestKthRoot(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{16, 2, 4}, {17, 2, 5}, {27, 3, 3}, {28, 3, 4}, {1000, 2, 32},
	}
	for _, c := range cases {
		if got := kthRoot(c.n, c.m); got != c.want {
			t.Errorf("kthRoot(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestReedSolomonSelectivityProperty(t *testing.T) {
	// Property-based: random (n, k) in a small range, exhaustive verify.
	f := func(nRaw, kRaw uint8) bool {
		n := 6 + int(nRaw%12) // 6..17
		k := 2 + int(kRaw%2)  // 2..3
		fam, err := NewReedSolomon(n, k)
		if err != nil {
			return false
		}
		return Verify(fam, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMembersCoverUniverse(t *testing.T) {
	// Every id must belong to at least one set (otherwise it can never be
	// isolated as a singleton subset).
	f, err := NewReedSolomon(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 41)
	for s := 0; s < f.Size(); s++ {
		for _, id := range Members(f, s) {
			counts[id]++
		}
	}
	for id := 1; id <= 40; id++ {
		if counts[id] == 0 {
			t.Errorf("id %d appears in no set", id)
		}
	}
}
