package ssf_test

import (
	"fmt"
	"slices"
	"testing"

	"dualgraph/internal/core"
	"dualgraph/internal/ssf"
)

// scanSets is the definition AppendSets must match: every set index whose
// Contains test passes, ascending.
func scanSets(f ssf.Family, id int) []int {
	var out []int
	for set := 0; set < f.Size(); set++ {
		if f.Contains(set, id) {
			out = append(out, set)
		}
	}
	return out
}

// checkListing compares AppendSets with a Contains scan for every id of f,
// plus the out-of-range ids 0 and N()+1, which are in no set. It also checks
// that AppendSets appends after what dst already holds.
func checkListing(t *testing.T, name string, f ssf.Family) {
	t.Helper()
	for id := 0; id <= f.N()+1; id++ {
		got := f.AppendSets([]int{-1}, id)
		if got[0] != -1 {
			t.Fatalf("%s id %d: AppendSets overwrote dst", name, id)
		}
		if want := scanSets(f, id); !slices.Equal(got[1:], want) {
			t.Fatalf("%s id %d: AppendSets = %v, Contains scan = %v", name, id, got[1:], want)
		}
	}
}

// TestAppendSetsMatchesContainsScan: the per-id set listing equals a
// Contains scan for Reed–Solomon families of several (n, k), for round
// robin, for an explicit family, and for every family
// NewStrongSelect builds at n ∈ {16, 256, 1024}.
func TestAppendSetsMatchesContainsScan(t *testing.T) {
	for _, nk := range [][2]int{{4, 2}, {16, 3}, {50, 3}, {100, 5}, {257, 4}, {1000, 8}} {
		f, err := ssf.NewReedSolomon(nk[0], nk[1])
		if err != nil {
			t.Fatal(err)
		}
		checkListing(t, fmt.Sprintf("reed-solomon(%d,%d)", nk[0], nk[1]), f)
	}
	rr, err := ssf.NewRoundRobin(33)
	if err != nil {
		t.Fatal(err)
	}
	checkListing(t, "round-robin(33)", rr)
	ex, err := ssf.NewExplicit(5, 2, [][]int{{1, 2}, {}, {2, 3, 5}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	checkListing(t, "explicit", ex)
	for _, n := range []int{16, 256, 1024} {
		a, err := core.NewStrongSelect(n)
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s <= a.Smax(); s++ {
			checkListing(t, fmt.Sprintf("strong-select(%d) F_%d", n, s), a.Family(s))
		}
	}
}

// TestReedSolomonContainsDoesNotAllocate pins the membership test, which
// Strong Select's diagnostics and the Verify checks call per (set, id), at
// zero heap allocations, and the per-id listing at none beyond dst's growth.
func TestReedSolomonContainsDoesNotAllocate(t *testing.T) {
	f, err := ssf.NewReedSolomon(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	set, id := 0, 1
	if allocs := testing.AllocsPerRun(1000, func() {
		f.Contains(set, id)
		set = (set + 7) % f.Size()
		id = id%f.N() + 1
	}); allocs != 0 {
		t.Fatalf("Contains allocates %v times per call, want 0", allocs)
	}
	dst := make([]int, 0, f.FieldSize())
	if allocs := testing.AllocsPerRun(100, func() {
		dst = f.AppendSets(dst[:0], id)
	}); allocs != 0 {
		t.Fatalf("AppendSets into a large enough dst allocates %v times, want 0", allocs)
	}
}
