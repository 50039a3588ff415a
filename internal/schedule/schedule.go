// Package schedule analyzes k-broadcastability (Section 3 of the paper): a
// network (G, G') is k-broadcastable when an omniscient scheduler can pick,
// for every round, a set of transmitting holders such that the message
// provably reaches every node within k rounds no matter which unreliable
// edges the adversary deploys.
//
// A node v is guaranteed to newly receive the message in a round with
// transmitter set S exactly when some holder s in S has a reliable edge to v
// and no other member of S has any G' edge to v — otherwise the adversary
// can either withhold the message or force a collision at v.
//
// The package provides an exact minimum-round schedule by breadth-first
// search over holder sets (exponential; small n only), a scalable greedy
// scheduler, and replay of either schedule as a sim.Algorithm to certify the
// result against the simulator's adversaries. The Theorem 2 witness
// (source, then bridge) is the two-round special case of these schedules.
package schedule

import (
	"errors"
	"fmt"
	"math/rand"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Schedule is a per-round list of transmitting nodes.
type Schedule [][]graph.NodeID

// Rounds returns the schedule length.
func (s Schedule) Rounds() int { return len(s) }

// progress returns the holder set after one round in which exactly the
// holders in senders transmit: v is newly covered iff exactly one sender has
// a G edge to v and no other sender has a G' edge to v.
func progress(d *graph.Dual, holders uint64, senders []graph.NodeID) uint64 {
	n := d.N()
	var reliableFrom [64]int8 // -1 = none, -2 = several; else the sender index
	var unreliableHit [64]bool
	for v := 0; v < n; v++ {
		reliableFrom[v] = -1
	}
	var row []graph.NodeID
	for i, s := range senders {
		for _, v := range d.Row(s, graph.Reliable, &row) {
			switch reliableFrom[v] {
			case -1:
				reliableFrom[v] = int8(i)
			default:
				reliableFrom[v] = -2
			}
		}
		for _, v := range d.Row(s, graph.Unreliable, &row) {
			unreliableHit[v] = true
		}
	}
	next := holders
	for v := 0; v < n; v++ {
		if holders&(1<<v) != 0 {
			continue
		}
		if reliableFrom[v] >= 0 && !unreliableHit[v] {
			next |= 1 << v
		}
	}
	return next
}

// ErrTooLarge is returned when the exact search would exceed its state
// budget.
var ErrTooLarge = errors.New("network too large for exact broadcastability search")

// ErrNoSchedule is returned when no guaranteed schedule exists within the
// bound (cannot happen on valid duals, where one-at-a-time BFS always
// works).
var ErrNoSchedule = errors.New("no guaranteed broadcast schedule found")

// Exact returns a minimum-length guaranteed schedule via BFS over holder
// sets. It supports n <= 24 (the state space is 2^n).
func Exact(d *graph.Dual) (Schedule, error) {
	n := d.N()
	if n > 24 {
		return nil, fmt.Errorf("%w: n=%d > 24", ErrTooLarge, n)
	}
	start := uint64(1) << d.Source()
	full := uint64(1)<<n - 1

	type step struct {
		parent uint64
		via    []graph.NodeID
	}
	prev := map[uint64]step{}
	frontier := []uint64{start}
	visited := map[uint64]bool{start: true}

	for len(frontier) > 0 {
		var next []uint64
		for _, holders := range frontier {
			if holders == full {
				var sched Schedule
				for at := full; at != start; at = prev[at].parent {
					sched = append(Schedule{prev[at].via}, sched...)
				}
				return sched, nil
			}
			for _, senders := range usefulSenderSets(d, holders) {
				h2 := progress(d, holders, senders)
				if h2 == holders || visited[h2] {
					continue
				}
				visited[h2] = true
				prev[h2] = step{parent: holders, via: senders}
				next = append(next, h2)
			}
		}
		frontier = next
	}
	return nil, ErrNoSchedule
}

// usefulSenderSets enumerates candidate transmitter sets among the holders.
// Exhaustive enumeration over all holder subsets is exponential twice over,
// so the search uses all singletons (always safe) plus all pairs, which is
// sufficient for optimal schedules on the paper's constructions and yields
// an upper bound in general.
func usefulSenderSets(d *graph.Dual, holders uint64) [][]graph.NodeID {
	var hs []graph.NodeID
	for v := 0; v < d.N(); v++ {
		if holders&(1<<v) != 0 {
			hs = append(hs, graph.NodeID(v))
		}
	}
	var sets [][]graph.NodeID
	for i, a := range hs {
		sets = append(sets, []graph.NodeID{a})
		for _, b := range hs[i+1:] {
			sets = append(sets, []graph.NodeID{a, b})
		}
	}
	return sets
}

// Greedy returns a guaranteed schedule by picking, each round, the single
// holder whose lone transmission covers the most uncovered nodes (lone
// transmissions are always collision-free). It runs in polynomial time at
// any size; its length is an upper bound on broadcastability.
func Greedy(d *graph.Dual) (Schedule, error) {
	n, g := d.N(), d.G()
	holders := make([]bool, n)
	holders[d.Source()] = true
	covered := 1
	var sched Schedule
	for covered < n {
		best, bestGain := graph.NodeID(-1), 0
		for u := 0; u < n; u++ {
			if !holders[u] {
				continue
			}
			gain := 0
			for _, v := range g.Out(graph.NodeID(u)) {
				if !holders[v] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = graph.NodeID(u), gain
			}
		}
		if bestGain == 0 {
			return nil, ErrNoSchedule
		}
		sched = append(sched, []graph.NodeID{best})
		for _, v := range g.Out(best) {
			if !holders[v] {
				holders[v] = true
				covered++
			}
		}
	}
	return sched, nil
}

// Alg wraps a schedule as a sim.Algorithm (identity assignment assumed), so
// a schedule's guarantee can be certified by replaying it against the
// simulator's adversaries.
func Alg(s Schedule) sim.Algorithm { return scheduleAlg{s: s} }

type scheduleAlg struct {
	s Schedule
}

func (a scheduleAlg) Name() string { return fmt.Sprintf("schedule(%d rounds)", len(a.s)) }

func (a scheduleAlg) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	node := graph.NodeID(id - 1)
	rounds := map[int]bool{}
	for r, senders := range a.s {
		for _, s := range senders {
			if s == node {
				rounds[r+1] = true
			}
		}
	}
	return &scheduleProc{rounds: rounds}
}

type scheduleProc struct {
	rounds map[int]bool
	has    bool
}

func (p *scheduleProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *scheduleProc) Decide(round int) bool { return p.has && p.rounds[round] }

func (p *scheduleProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}
