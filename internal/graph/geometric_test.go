package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refDualFromPositions is the Builder-based geometric construction that the
// direct-CSR DualFromPositions replaced: the same cell grid and pair
// predicate, with every arc appended to a Builder log, G' cloned from G, and
// both frozen by the sort-and-deduplicate pass. The direct path must produce
// byte-identical cores.
func refDualFromPositions(xs, ys []float64, rReliable, rUnreliable float64, source NodeID) (*Dual, error) {
	n := len(xs)
	if n < 2 {
		return nil, ErrTooSmall
	}
	if len(ys) != n {
		return nil, fmt.Errorf("geometric positions: %d x coordinates but %d y coordinates", n, len(ys))
	}
	if rUnreliable < rReliable {
		return nil, fmt.Errorf("rUnreliable (%v) must be >= rReliable (%v)", rUnreliable, rReliable)
	}
	dist := func(u, v int) float64 {
		return math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
	}
	g := NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(NodeID(u), NodeID(u+1))
	}
	side := 1
	if rUnreliable > 0 {
		side = int(1 / rUnreliable)
	}
	if maxSide := int(math.Sqrt(float64(n))) + 1; side > maxSide {
		side = maxSide
	}
	if side < 1 {
		side = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(side))
		if c >= side {
			c = side - 1
		}
		return c
	}
	buckets := make([][]int32, side*side)
	for u := 0; u < n; u++ {
		c := cellOf(ys[u])*side + cellOf(xs[u])
		buckets[c] = append(buckets[c], int32(u))
	}
	var unreliable [][2]NodeID
	for u := 0; u < n; u++ {
		cx, cy := cellOf(xs[u]), cellOf(ys[u])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x2, y2 := cx+dx, cy+dy
				if x2 < 0 || x2 >= side || y2 < 0 || y2 >= side {
					continue
				}
				for _, w := range buckets[y2*side+x2] {
					v := int(w)
					if v <= u {
						continue
					}
					d := dist(u, v)
					if d <= rReliable {
						g.MustAddEdge(NodeID(u), NodeID(v))
					} else if d <= rUnreliable {
						unreliable = append(unreliable, [2]NodeID{NodeID(u), NodeID(v)})
					}
				}
			}
		}
	}
	gp := g.Clone()
	for _, e := range unreliable {
		gp.MustAddEdge(e[0], e[1])
	}
	return NewDual(g, gp, source)
}

// coresIdentical compares two duals down to the CSR arrays: the offsets and
// targets of G, G' and the fringe, fringeFrom (hence every EdgeID), the
// source and directedness.
func coresIdentical(a, b *Dual) error {
	a, b = a.cores(), b.cores()
	if a.Source() != b.Source() {
		return fmt.Errorf("source %d vs %d", a.Source(), b.Source())
	}
	for _, c := range []struct {
		name string
		x, y *Graph
	}{{"G", a.g, b.g}, {"G'", a.gPrime, b.gPrime}, {"fringe", a.fringe, b.fringe}} {
		if c.x.n != c.y.n || c.x.directed != c.y.directed {
			return fmt.Errorf("%s: shape (%d, %v) vs (%d, %v)", c.name, c.x.n, c.x.directed, c.y.n, c.y.directed)
		}
		if !slices.Equal(c.x.offsets, c.y.offsets) {
			return fmt.Errorf("%s offsets differ", c.name)
		}
		if !slices.Equal(c.x.targets, c.y.targets) {
			return fmt.Errorf("%s targets differ", c.name)
		}
	}
	if !slices.Equal(a.fringeFrom, b.fringeFrom) {
		return fmt.Errorf("fringeFrom differs")
	}
	return nil
}

// checkPositions builds the dual both ways and requires identical outcomes:
// the same error (by message) or byte-identical cores.
func checkPositions(t *testing.T, xs, ys []float64, rRel, rUnrel float64, source NodeID) {
	t.Helper()
	want, wantErr := refDualFromPositions(xs, ys, rRel, rUnrel, source)
	got, gotErr := DualFromPositions(xs, ys, rRel, rUnrel, source)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("n=%d r=%v/%v: error %v, reference %v", len(xs), rRel, rUnrel, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if err := coresIdentical(got, want); err != nil {
		t.Fatalf("n=%d r=%v/%v: %v", len(xs), rRel, rUnrel, err)
	}
}

func randomPositions(rng *rand.Rand, n int) (xs, ys []float64) {
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	return xs, ys
}

func TestDualFromPositionsMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(300)
		rRel := rng.Float64() * 0.3
		rUnrel := rRel + rng.Float64()*0.4
		xs, ys := randomPositions(rng, n)
		checkPositions(t, xs, ys, rRel, rUnrel, NodeID(rng.Intn(n)))
	}
}

func TestDualFromPositionsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, ys := randomPositions(rng, 200)
	t.Run("coincident", func(t *testing.T) {
		cx, cy := slices.Clone(xs), slices.Clone(ys)
		for i := 0; i < len(cx); i += 3 {
			cx[i], cy[i] = 0.5, 0.5
		}
		for i := 1; i < len(cx); i += 7 {
			cx[i], cy[i] = cx[i-1], cy[i-1]
		}
		checkPositions(t, cx, cy, 0, 0.1, 0)
		checkPositions(t, cx, cy, 0.05, 0.1, 0)
		checkPositions(t, cx, cy, 0, 0, 0)
	})
	t.Run("exact-radii", func(t *testing.T) {
		// Pairs on an axis at exactly each radius, and at one ulp either side.
		const r1, r2 = 0.125, 0.25
		var px, py []float64
		for i, d := range []float64{r1, r2, math.Nextafter(r1, 1), math.Nextafter(r2, 1), math.Nextafter(r1, 0), math.Nextafter(r2, 0)} {
			y := 0.05 + 0.15*float64(i)
			px = append(px, 0.25, 0.25+d, 0.6)
			py = append(py, y, y, 0.9-0.1*float64(i))
			px = append(px, 0.1)
			py = append(py, y+d)
		}
		checkPositions(t, px, py, r1, r2, 0)
		checkPositions(t, px, py, r1, r1, 0)
		checkPositions(t, px, py, r2, r2, 0)
	})
	t.Run("unit-edge", func(t *testing.T) {
		cx, cy := slices.Clone(xs), slices.Clone(ys)
		for i := 0; i < len(cx); i += 4 {
			cx[i] = 1
		}
		for i := 2; i < len(cy); i += 5 {
			cy[i] = 1
		}
		cx[1], cy[1] = 1, 1
		cx[2], cy[2] = 0, 0
		checkPositions(t, cx, cy, 0.08, 0.16, 3)
		checkPositions(t, cx, cy, 0.01, 0.02, 3)
	})
	t.Run("huge-radius", func(t *testing.T) {
		checkPositions(t, xs, ys, 0.3, math.Sqrt2, 0)
		checkPositions(t, xs, ys, 1.5, 2, 0)
		checkPositions(t, xs, ys, 0.2, math.Inf(1), 0)
	})
	t.Run("equal-and-zero-radii", func(t *testing.T) {
		checkPositions(t, xs, ys, 0.1, 0.1, 0)
		checkPositions(t, xs, ys, 0, 0.1, 0)
		checkPositions(t, xs, ys, 0, 0, 0)
		checkPositions(t, xs, ys, 1e-200, 1e-200, 0)
	})
	t.Run("two-nodes", func(t *testing.T) {
		checkPositions(t, []float64{0.1, 0.9}, []float64{0.1, 0.9}, 0.1, 0.2, 1)
		checkPositions(t, []float64{0.1, 0.15}, []float64{0.1, 0.1}, 0.01, 0.2, 0)
		checkPositions(t, []float64{0.3, 0.3}, []float64{0.3, 0.3}, 0, 0, 0)
	})
	t.Run("far-path-arcs", func(t *testing.T) {
		// Consecutive indices in opposite corners: the backbone path joins
		// nodes that share no cell neighbourhood.
		n := 64
		px, py := make([]float64, n), make([]float64, n)
		for i := range px {
			c := float64(i%2) * 0.9
			px[i] = c + rng.Float64()*0.1
			py[i] = c + rng.Float64()*0.1
		}
		checkPositions(t, px, py, 0.03, 0.06, 0)
	})
	t.Run("errors", func(t *testing.T) {
		checkPositions(t, []float64{0.5}, []float64{0.5}, 0.1, 0.2, 0)
		checkPositions(t, xs, ys[:10], 0.1, 0.2, 0)
		checkPositions(t, xs, ys, 0.2, 0.1, 0)
		checkPositions(t, xs, ys, 0.1, 0.2, NodeID(len(xs)))
	})
}

// TestWaypointEpochsMatchBuilder replays 64 consecutive epochs of the
// churn-epochs benchmark's waypoint schedule (n=1024, radii .06/.12, four
// epochs per leg) through the reference construction.
func TestWaypointEpochsMatchBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("64 reference builds at n=1024")
	}
	base, err := Geometric(1024, 0.06, 0.12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWaypoint(base, 8, 4, 0.06, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := make([]float64, s.n), make([]float64, s.n)
	for e := 0; e < 64; e++ {
		got, err := s.Epoch(e, 11)
		if err != nil {
			t.Fatal(err)
		}
		s.positions(e, 11, xs, ys)
		want, err := refDualFromPositions(xs, ys, s.rRel, s.rUnrel, s.source)
		if err != nil {
			t.Fatal(err)
		}
		if err := coresIdentical(got, want); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
}

func FuzzDualFromPositions(f *testing.F) {
	f.Add(uint8(40), int64(1), 0.1, 0.2, uint8(0))
	f.Add(uint8(2), int64(2), 0.0, 0.0, uint8(1))
	f.Add(uint8(120), int64(3), 0.3, 1.5, uint8(7))
	f.Add(uint8(200), int64(4), 0.05, 0.05, uint8(3))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, rRel, rUnrel float64, shape uint8) {
		if n < 2 || math.IsNaN(rRel) || math.IsNaN(rUnrel) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomPositions(rng, int(n))
		// shape snaps some coordinates onto a coarse lattice (coincident
		// points, pairs at lattice distances, the 1.0 cell clamp).
		if step := float64(shape % 8); step > 0 {
			for i := range xs {
				if rng.Intn(2) == 0 {
					xs[i] = math.Round(xs[i]*step) / step
					ys[i] = math.Round(ys[i]*step) / step
				}
			}
		}
		checkPositions(t, xs, ys, rRel, rUnrel, NodeID(int(shape)%int(n)))
	})
}
