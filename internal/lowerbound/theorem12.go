package lowerbound

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Theorem12Result reports the outcome of the Theorem 12 game.
type Theorem12Result struct {
	// N is the network size (n-1 a power of two, n odd).
	N int
	// StagesPlanned is (n-1)/4, the number of layer-filling stages.
	StagesPlanned int
	// StagesCompleted counts stages finished before the horizon was hit.
	StagesCompleted int
	// StageExtensions[k] is the number of rounds stage k+1 added to the
	// execution; the proof guarantees at least log2(n-1)-2 per stage.
	StageExtensions []int
	// ForcedRounds is the length of the constructed execution prefix during
	// which the message is confined to the filled layers, i.e. a lower bound
	// on the algorithm's broadcast time in this network.
	ForcedRounds int
	// TheoryBound is the guaranteed (n-1)/4 · (log2(n-1) - 2) extension sum.
	TheoryBound int
	// HitHorizon reports that some stage never isolated its pair within the
	// horizon (an even stronger failure of the algorithm).
	HitHorizon bool
}

// MinStageExtension returns the per-stage extension the proof guarantees:
// log2(n-1) - 2 rounds.
func MinStageExtension(n int) int { return log2int(n-1) - 2 }

// theorem12Horizon caps the search for the next isolation round in a stage.
func theorem12Horizon(n int) int { return 50*n*n + 2000 }

// segment describes the adversary rules in force for a range of rounds of
// the constructed execution: during stage k+1, deliveries follow the proof's
// rules parameterized by the already-assigned process set A_k and the
// candidate pair placed on the next layer.
type segment struct {
	// fromRound is the first round governed by this segment (1-based).
	fromRound int
	// alpha0 marks the initial segment in which every G' edge is used.
	alpha0 bool
	// pair is the two candidate processes assigned to layer k+1.
	pair [2]int
	// targets marks the nodes holding A_k ∪ {i, i'}, where A_k is the
	// processes assigned to layers 0..k: rule 2's reach. Those processes sit
	// on the same nodes in every later assignment, so the set is computed
	// once, when the segment is built.
	targets []bool
}

// theorem12Adversary replays a scripted sequence of segments. It implements
// the proof's delivery rules on the complete layered network:
//
//  1. More than one sender: all messages reach all processes (⊤ under CR1).
//  2. A lone sender with pid in A_k: the message reaches exactly the
//     processes with pids in A_k ∪ {i, i'}.
//  3. A lone sender with an unassigned pid: the message reaches everyone.
//  4. A lone sender i or i' likewise reaches everyone (the construction cuts
//     the execution just before this first happens).
type theorem12Adversary struct {
	procOf   []int
	segments []segment
}

var (
	_ sim.Adversary         = (*theorem12Adversary)(nil)
	_ sim.BufferedDeliverer = (*theorem12Adversary)(nil)
)

func (a *theorem12Adversary) Name() string { return "theorem12" }

func (a *theorem12Adversary) AssignProcs(_ *graph.Dual, _ *rand.Rand) ([]int, error) {
	return a.procOf, nil
}

func (a *theorem12Adversary) segmentAt(round int) *segment {
	for i := len(a.segments) - 1; i >= 0; i-- {
		if a.segments[i].fromRound <= round {
			return &a.segments[i]
		}
	}
	return &a.segments[0]
}

func (a *theorem12Adversary) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer with the proof's rules. In
// α_0 and under rules 1, 3 and 4 every unreliable edge of every sender
// delivers. Under rule 2 (a lone sender in A_k) the message reaches exactly
// A_k ∪ {i, i'}: the sender sits in layers 0..k, so its reliable edges only
// reach layers 0..k+1, all of them targets, and the adversary adds the
// unreliable edges to the remaining targets.
func (a *theorem12Adversary) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	seg := a.segmentAt(v.Round)
	var only []bool
	if len(senders) == 1 && !seg.alpha0 {
		s := senders[0]
		if pid := v.ProcOf[s]; seg.targets[s] && pid != seg.pair[0] && pid != seg.pair[1] {
			only = seg.targets
		}
	}
	for _, s := range senders {
		for _, t := range v.Dual.UnreliableOut(s) {
			if only == nil || only[t] {
				sink.Add(s, t)
			}
		}
	}
}

func (a *theorem12Adversary) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery // CR1 is used throughout; Resolve is never consulted.
}

// theorem12Driver holds the incremental construction state.
type theorem12Driver struct {
	n        int
	alg      sim.Algorithm
	dual     *graph.Dual
	horizon  int
	segments []segment
	// procOf: committed assignments for layers filled so far; 0 = unassigned.
	committed []int
	aPids     map[int]bool
	prefixLen int
}

// RunTheorem12Game plays the Theorem 12 candidate-set adversary against a
// deterministic algorithm on the complete layered network with n nodes,
// where n is odd and n-1 is a power of two with n >= 9. It constructs, stage
// by stage, an execution in which each of the (n-1)/4 stages extends the
// execution by at least log2(n-1)-2 rounds while the broadcast message stays
// confined to the filled layers — an Ω(n log n) lower bound in executable
// form.
func RunTheorem12Game(n int, alg sim.Algorithm, horizon int) (*Theorem12Result, error) {
	if n < 9 || n%2 == 0 || bits.OnesCount(uint(n-1)) != 1 {
		return nil, fmt.Errorf("theorem 12 needs odd n >= 9 with n-1 a power of two, got %d", n)
	}
	d, err := graph.CompleteLayered(n)
	if err != nil {
		return nil, err
	}
	if horizon <= 0 {
		horizon = theorem12Horizon(n)
	}
	drv := &theorem12Driver{
		n:         n,
		alg:       alg,
		dual:      d,
		horizon:   horizon,
		committed: make([]int, n),
		aPids:     map[int]bool{1: true},
	}
	drv.committed[0] = 1 // the distinguished identifier i0 = 1 at the source
	drv.segments = []segment{{fromRound: 1, alpha0: true}}

	res := &Theorem12Result{
		N:             n,
		StagesPlanned: (n - 1) / 4,
		TheoryBound:   (n - 1) / 4 * MinStageExtension(n),
	}

	// Stage 0: run the pure α_0 script (every G' edge used in every round)
	// until i0 is about to be isolated.
	i0 := [2]int{1, 1}
	isolation, found, err := drv.findIsolation(drv.adversaryFor(i0), i0)
	if err != nil {
		return nil, err
	}
	if !found {
		res.ForcedRounds = horizon
		res.HitHorizon = true
		return res, nil
	}
	drv.prefixLen = isolation - 1

	for stage := 1; stage <= res.StagesPlanned; stage++ {
		ext, found, err := drv.runStage(stage)
		if err != nil {
			return nil, fmt.Errorf("stage %d: %w", stage, err)
		}
		if !found {
			res.ForcedRounds = horizon
			res.HitHorizon = true
			return res, nil
		}
		res.StageExtensions = append(res.StageExtensions, ext)
		res.StagesCompleted++
	}
	res.ForcedRounds = drv.prefixLen
	return res, nil
}

// runStage executes stage `stage` (filling layer `stage`), returning the
// number of rounds the stage appended.
func (d *theorem12Driver) runStage(stage int) (ext int, found bool, err error) {
	maxDepth := MinStageExtension(d.n) // log2(n-1) - 2
	candidates := d.unassignedPids()
	for depth := 0; depth < maxDepth; depth++ {
		if len(candidates) < 4 {
			break
		}
		sendersWhenAssigned, sendersWhenNot, err := d.probeRound(candidates, depth+1)
		if err != nil {
			return 0, false, err
		}
		candidates = nextCandidates(candidates, sendersWhenAssigned, sendersWhenNot)
		if len(candidates) < 2 {
			return 0, false, fmt.Errorf("candidate set collapsed below 2 at depth %d", depth)
		}
	}
	pair := [2]int{candidates[0], candidates[1]}

	oldPrefix := d.prefixLen
	adv := d.adversaryFor(pair)
	isolation, found, err := d.findIsolation(adv, pair)
	if err != nil || !found {
		return 0, found, err
	}

	// Commit: assign the pair to layer `stage`, extend A and the script.
	d.segments = adv.segments
	d.committed[2*stage-1] = pair[0]
	d.committed[2*stage] = pair[1]
	d.aPids[pair[0]] = true
	d.aPids[pair[1]] = true
	d.prefixLen = isolation - 1
	return d.prefixLen - oldPrefix, true, nil
}

// probeRound determines, for round `depth` of the current stage's β
// executions, which candidates send when assigned to the next layer (the
// proof's S_{ℓ+1}) and which send when not assigned (N_{ℓ+1}).
func (d *theorem12Driver) probeRound(candidates []int, depth int) (whenAssigned, whenNot map[int]bool, err error) {
	absRound := d.prefixLen + 1 + depth // round `depth` of β, absolute numbering

	whenAssigned = make(map[int]bool)
	whenNot = make(map[int]bool)
	isCandidate := make(map[int]bool, len(candidates))
	for _, c := range candidates {
		isCandidate[c] = true
	}

	// N-probe: two runs with disjoint representative pairs cover everyone
	// (N_{ℓ+1} ⊆ C_ℓ, and by the proof's Property P(2) the choice of
	// representative pair does not change who sends).
	pairs := [][2]int{
		{candidates[0], candidates[1]},
		{candidates[2], candidates[3]},
	}
	for idx, pr := range pairs {
		senders, err := d.sendersAtRound(pr, absRound)
		if err != nil {
			return nil, nil, err
		}
		for _, pid := range senders {
			if pid == pr[0] || pid == pr[1] || !isCandidate[pid] {
				continue
			}
			if idx == 1 && pid != pairs[0][0] && pid != pairs[0][1] {
				continue // already covered by the first probe
			}
			whenNot[pid] = true
		}
	}

	// S-probe: one run per candidate with the candidate assigned.
	for _, pid := range candidates {
		partner := candidates[0]
		if partner == pid {
			partner = candidates[1]
		}
		senders, err := d.sendersAtRound([2]int{pid, partner}, absRound)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range senders {
			if s == pid {
				whenAssigned[pid] = true
				break
			}
		}
	}
	return whenAssigned, whenNot, nil
}

// nextCandidates applies the proof's three-case candidate refinement.
func nextCandidates(candidates []int, whenAssigned, whenNot map[int]bool) []int {
	if len(whenNot) >= 2 {
		// Case I: drop the two smallest processes that send when unassigned;
		// in the remaining executions they stay unassigned and collide.
		drop := smallestTwo(whenNot)
		return removeAll(candidates, map[int]bool{drop[0]: true, drop[1]: true})
	}
	inS := 0
	for _, c := range candidates {
		if whenAssigned[c] {
			inS++
		}
	}
	if inS*2 >= len(candidates) {
		// Case II: keep exactly the candidates that send when assigned; any
		// surviving pair then collides at this depth.
		out := make([]int, 0, inS)
		for _, c := range candidates {
			if whenAssigned[c] {
				out = append(out, c)
			}
		}
		return out
	}
	// Case III: keep candidates that stay silent either way.
	banned := make(map[int]bool, len(whenAssigned)+len(whenNot))
	for pid := range whenAssigned {
		banned[pid] = true
	}
	for pid := range whenNot {
		banned[pid] = true
	}
	return removeAll(candidates, banned)
}

// sendersAtRound replays the execution β_pair up to absRound and returns the
// process ids transmitting in that round.
func (d *theorem12Driver) sendersAtRound(pair [2]int, absRound int) ([]int, error) {
	adv := d.adversaryFor(pair)
	run, err := d.start(adv, absRound)
	if err != nil {
		return nil, err
	}
	for run.Round() < absRound {
		if _, err := run.Step(); err != nil {
			return nil, err
		}
	}
	pids := make([]int, len(run.Senders()))
	for i, s := range run.Senders() {
		pids[i] = adv.procOf[s]
	}
	return pids, nil
}

// findIsolation replays the execution scripted by adv and returns the first
// round after the current prefix in which a process of pair transmits
// alone.
func (d *theorem12Driver) findIsolation(adv *theorem12Adversary, pair [2]int) (round int, found bool, err error) {
	run, err := d.start(adv, d.horizon)
	if err != nil {
		return 0, false, err
	}
	for run.Round() < d.horizon {
		if _, err := run.Step(); err != nil {
			return 0, false, err
		}
		if s := run.Senders(); run.Round() > d.prefixLen && len(s) == 1 {
			if pid := adv.procOf[s[0]]; pid == pair[0] || pid == pair[1] {
				return run.Round(), true, nil
			}
		}
	}
	return 0, false, nil
}

// start sets up the execution scripted by adv, capped at maxRounds rounds;
// the construction steps it past completion, since it reads only senders.
func (d *theorem12Driver) start(adv *theorem12Adversary, maxRounds int) (*sim.Execution, error) {
	return sim.Start(graph.Static(d.dual), d.alg, adv, sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		MaxRounds: maxRounds,
	})
}

// adversaryFor builds the adversary of the execution β_pair: the committed
// script and assignment, plus, when pair is a stage probe (two distinct
// pids), the pair on the next free layer and a trailing segment for it
// starting right after the current prefix.
func (d *theorem12Driver) adversaryFor(pair [2]int) *theorem12Adversary {
	procOf := d.assignmentWith(pair)
	segs := d.segments
	if pair[0] != pair[1] {
		targets := make([]bool, d.n)
		for node, p := range procOf {
			targets[node] = d.aPids[p] || p == pair[0] || p == pair[1]
		}
		segs = append(slices.Clip(segs), segment{
			fromRound: d.prefixLen + 1,
			pair:      pair,
			targets:   targets,
		})
	}
	return &theorem12Adversary{procOf: procOf, segments: segs}
}

// assignmentWith builds a full node->pid assignment: committed layers, the
// probe pair on the next free layer, and all remaining pids in increasing
// order on the remaining nodes (the proof's "default rule").
func (d *theorem12Driver) assignmentWith(pair [2]int) []int {
	procOf := make([]int, d.n)
	copy(procOf, d.committed)
	used := map[int]bool{}
	for _, pid := range procOf {
		if pid != 0 {
			used[pid] = true
		}
	}
	if pair[0] != pair[1] { // stage probes place the pair on the next layer
		for node := range procOf {
			if procOf[node] == 0 {
				procOf[node] = pair[0]
				used[pair[0]] = true
				break
			}
		}
		for node := range procOf {
			if procOf[node] == 0 {
				procOf[node] = pair[1]
				used[pair[1]] = true
				break
			}
		}
	}
	next := 1
	for node := range procOf {
		if procOf[node] != 0 {
			continue
		}
		for used[next] {
			next++
		}
		procOf[node] = next
		used[next] = true
	}
	return procOf
}

// unassignedPids returns all candidate pids (I minus A_k) in increasing
// order.
func (d *theorem12Driver) unassignedPids() []int {
	var out []int
	for pid := 1; pid <= d.n; pid++ {
		if !d.aPids[pid] {
			out = append(out, pid)
		}
	}
	return out
}

func smallestTwo(s map[int]bool) [2]int {
	keys := make([]int, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return [2]int{keys[0], keys[1]}
}

func removeAll(xs []int, banned map[int]bool) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if !banned[x] {
			out = append(out, x)
		}
	}
	return out
}

func log2int(x int) int {
	return bits.Len(uint(x)) - 1
}
