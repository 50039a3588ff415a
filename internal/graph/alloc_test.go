package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestWaypointEpochAllocation bounds what one waypoint epoch allocates at
// the churn-epochs parameters (n=1024, radii .06/.12, epoch length 8, four
// epochs per leg), built sequentially as a run builds them. The bucketing,
// the pair lists and the positions come from pooled scratch, so an epoch
// allocates only the Dual, G and the fringe: 9 allocations and ~290 KB.
// The bounds leave room for noise but fail a build that lays out G' and
// subtracts the fringe in per-epoch scratch (28 allocations, ~990 KB).
func TestWaypointEpochAllocation(t *testing.T) {
	const (
		maxAllocs = 24
		maxBytes  = 400 << 10
		epochs    = 64
	)
	base, err := Geometric(1024, 0.06, 0.12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWaypoint(base, 8, 4, 0.06, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	e := 0
	epoch := func() {
		e++
		if _, err := s.Epoch(1+e%epochs, 7); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(epochs, epoch)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range epochs {
		epoch()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / epochs
	t.Logf("%.1f allocs, %d B per waypoint epoch", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("a waypoint epoch allocates %.1f times, want at most %d", allocs, maxAllocs)
	}
	// Race instrumentation adds bytes to each allocation, not allocations,
	// so the byte cap holds only in plain builds.
	if bytes > maxBytes && !raceEnabled {
		t.Errorf("a waypoint epoch allocates %d B, want at most %d", bytes, maxBytes)
	}
}
