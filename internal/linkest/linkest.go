// Package linkest implements link-quality estimation, the practice the
// paper's introduction describes: real deployments probe their links and
// cull unreliable ones with estimators such as ETX before running
// higher-layer protocols on the surviving topology.
//
// The package runs a collision-free round-robin probing phase against a
// stochastic link model, estimates per-arc delivery rates, and builds the
// culled "estimated reliable" graph. Its purpose in this reproduction is the
// cautionary experiment behind the dual graph model: links that behave well
// during probing can be adversarial afterwards, so protocols that trust the
// culled topology (e.g. a precomputed tree schedule) break, while dual-graph
// algorithms do not.
package linkest

import (
	"fmt"
	"math/rand"

	"dualgraph/internal/graph"
)

// Arc is a directed link between two nodes.
type Arc struct {
	From, To graph.NodeID
}

// Survey is the outcome of a probing phase.
type Survey struct {
	// Cycles is the number of full probe cycles performed.
	Cycles int
	// Threshold is the delivery-rate cutoff for declaring an arc reliable.
	Threshold float64
	// Rates maps every G' arc to its observed delivery rate.
	Rates map[Arc]float64
	// Estimated is the culled graph: all arcs with rate >= Threshold.
	Estimated *graph.Builder
	// TruePositives counts estimated arcs that are truly reliable;
	// FalsePositives counts estimated arcs that are actually unreliable;
	// FalseNegatives counts truly reliable arcs that were culled.
	TruePositives, FalsePositives, FalseNegatives int

	dual *graph.Dual
}

// Probe runs `cycles` collision-free round-robin probe cycles on the
// network: every node beacons once per cycle, reliable arcs always deliver,
// and each unreliable arc delivers independently with probability
// deliveryProb. Arcs with observed rate >= threshold form the estimated
// reliable graph.
func Probe(d *graph.Dual, deliveryProb float64, cycles int, threshold float64, seed int64) (*Survey, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("probe needs cycles >= 1, got %d", cycles)
	}
	if deliveryProb < 0 || deliveryProb > 1 {
		return nil, fmt.Errorf("delivery probability %v outside [0,1]", deliveryProb)
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("threshold %v outside (0,1]", threshold)
	}
	rng := rand.New(rand.NewSource(seed))
	n := d.N()
	counts := make(map[Arc]int)
	g := d.G()
	for cycle := 0; cycle < cycles; cycle++ {
		for u := 0; u < n; u++ {
			from := graph.NodeID(u)
			for _, v := range g.Out(from) {
				counts[Arc{from, v}]++
			}
			_, unrel := d.UnreliableEdges(from)
			for _, v := range unrel {
				if rng.Float64() < deliveryProb {
					counts[Arc{from, v}]++
				}
			}
		}
	}

	s := &Survey{
		Cycles:    cycles,
		Threshold: threshold,
		Rates:     make(map[Arc]float64),
		Estimated: graph.NewBuilder(n, true),
		dual:      d,
	}
	for u := 0; u < n; u++ {
		from := graph.NodeID(u)
		for _, v := range d.GPrime().Out(from) {
			arc := Arc{from, v}
			rate := float64(counts[arc]) / float64(cycles)
			s.Rates[arc] = rate
			reliable := d.G().HasEdge(from, v)
			if rate >= threshold {
				if err := s.Estimated.AddEdge(from, v); err != nil {
					return nil, fmt.Errorf("estimated graph: %w", err)
				}
				if reliable {
					s.TruePositives++
				} else {
					s.FalsePositives++
				}
			} else if reliable {
				s.FalseNegatives++
			}
		}
	}
	return s, nil
}

// Precision returns TP/(TP+FP); 1 when nothing was estimated.
func (s *Survey) Precision() float64 {
	total := s.TruePositives + s.FalsePositives
	if total == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(total)
}

// Recall returns TP/(TP+FN); 1 when there is nothing to recall.
func (s *Survey) Recall() float64 {
	total := s.TruePositives + s.FalseNegatives
	if total == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(total)
}

// CulledDual builds the dual graph a culling deployment would effectively
// assume: the estimated graph as the reliable layer under the original G'.
// It fails when culling disconnected the source (recall too low), which is
// itself a meaningful experimental outcome.
func (s *Survey) CulledDual() (*graph.Dual, error) {
	return graph.NewDualGraphs(s.Estimated.Freeze(), s.dual.GPrime(), s.dual.Source())
}
