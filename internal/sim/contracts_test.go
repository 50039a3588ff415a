package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// hidden wraps an algorithm so the round loop sees none of its optional
// contracts: no NewProcessRNG (its processes get a *rand.Rand), no
// HoldersIgnoreReceptions, and processes without NextSend. Embedding the
// interfaces promotes only their own methods.
type hidden struct{ sim.Algorithm }

func (a hidden) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	return plainProc{a.Algorithm.NewProcess(id, n, rng)}
}

type plainProc struct{ sim.Process }

// builtIns returns every built-in algorithm for the n-node network d.
// Delta-select gets Δ = 3, so its family is a Reed–Solomon one once n is
// large enough.
func builtIns(d *graph.Dual) []sim.Algorithm {
	n := d.N()
	return []sim.Algorithm{
		core.NewRoundRobin(), core.NewDecay(), must(core.NewUniform(0.25)),
		must(core.NewHarmonicForN(n, 0.1)), must(core.NewStrongSelect(n)),
		must(core.NewDeltaSelect(n, 3)), must(core.NewTreeCast(d.G(), d.Source())),
	}
}

// must returns v, panicking on a construction error in a fixture.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestContractsMatchHiddenContracts is the strong-equivalence check of the
// optional round-loop contracts. Every built-in declares deaf holders;
// Decay, Uniform and Harmonic draw from value RNGs and plan their sends
// from them, and round robin and Strong Select plan theirs too. A run that
// uses the contracts must equal the run through Process and NewProcess
// alone: on random small duals, under CR1–CR4, sync and async starts, the
// benign, greedy-collider and random adversaries, and static, churn and
// fade schedules, Senders() agrees in every round and the final Result is
// equal. Every fourth network has n >= 128, where Strong Select runs two
// scales. Uniform(0.002), Harmonic with T = 1 and replanAlg send with gaps
// past the calendar's wheel and the value coins' look-ahead bound, over
// runs of up to 1500 rounds, many turns of the wheel; replanAlg also
// plans again on every reception and leaves stale calendar bits behind.
func TestContractsMatchHiddenContracts(t *testing.T) {
	for _, alg := range []sim.Algorithm{core.NewDecay(), &core.Uniform{P: 0.5}, &core.Harmonic{T: 3}} {
		v, ok := alg.(sim.ValueRNGAlgorithm)
		if !ok {
			t.Fatalf("%s does not draw from a value RNG", alg.Name())
		}
		if _, ok := v.NewProcessRNG(1, 8, rng.StreamValue(1, 2)).(sim.SendPlanner); !ok {
			t.Fatalf("%s processes do not plan their sends", alg.Name())
		}
	}
	for _, alg := range []sim.Algorithm{core.NewRoundRobin(), must(core.NewStrongSelect(8))} {
		if _, ok := alg.NewProcess(1, 8, nil).(sim.SendPlanner); !ok {
			t.Fatalf("%s processes do not plan their sends", alg.Name())
		}
	}
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	starts := []sim.StartRule{sim.SyncStart, sim.AsyncStart}
	cases := 72
	if testing.Short() {
		cases = 24
	}
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 5 + rng.Intn(12)
		if i%4 == 3 {
			n = 128 + rng.Intn(40)
		}
		d, err := graph.RandomDual(n, min(0.2, 6/float64(n)), min(0.5, 12/float64(n)), rng)
		if err != nil {
			t.Fatal(err)
		}
		var sched graph.Schedule = graph.Static(d)
		switch i % 3 {
		case 1:
			sched, err = graph.NewChurn(d, 1+rng.Intn(4), 0.3)
		case 2:
			sched, err = graph.NewFade(d, 1+rng.Intn(4), 0.3)
		}
		if err != nil {
			t.Fatal(err)
		}
		var adv sim.Adversary
		switch i / 3 % 3 {
		case 0:
			adv = adversary.GreedyCollider{}
		case 1:
			adv, err = adversary.NewRandom(0.5)
		default:
			adv = adversary.Benign{}
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Rule: rules[i%4], Start: starts[i/4%2], Seed: rng.Int63(), MaxRounds: 1500}
		for _, alg := range builtIns(d) {
			if dh, ok := alg.(sim.DeafHolders); !ok || !dh.HoldersIgnoreReceptions() {
				t.Fatalf("%s does not declare deaf holders", alg.Name())
			}
		}
		replan := &replanAlg{}
		for _, alg := range append(builtIns(d), &core.Uniform{P: 0.002}, &core.Harmonic{T: 1}, replan) {
			name := fmt.Sprintf("case %d n=%d %s (%T, %T, %v, %v)", i, n, alg.Name(), sched, adv, cfg.Rule, cfg.Start)
			compareRuns(t, name, sched, alg, hidden{alg}, adv, cfg)
		}
		if replan.bad != "" {
			t.Fatalf("case %d: %s", i, replan.bad)
		}
		if replan.stale == 0 {
			t.Fatalf("case %d: no process planned again before its planned round", i)
		}
	}
}

// replanAlg is a planning algorithm whose plans move with what its
// processes hear. Process id sends, with or without the message, in the
// rounds t whose hash of (id, heard, t) is 0 modulo a gap of 1 to 90 rounds,
// where heard counts the messages it has received; after its sixth it never
// sends again. It declares no deaf holders, so a reception can move a plan
// after it was filed, leaving a stale calendar bit. A process records the
// first Decide call in a round its last NextSend did not name in bad, and
// stale counts the NextSend calls that moved an earlier plan.
type replanAlg struct {
	bad   string
	stale int
}

func (*replanAlg) Name() string { return "replan" }

func (a *replanAlg) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &replanProc{alg: a, id: id, gap: 1 + int(rng.Mix64(uint64(id))%90)}
}

type replanProc struct {
	alg              *replanAlg
	id, gap, heard   int
	planned, decided int // the last NextSend answer (0 before the first) and Decide round
}

func (p *replanProc) Start(int, bool) {}

func (p *replanProc) sends(t int) bool {
	return p.heard < 6 && rng.Mix64(uint64(p.id)<<40^uint64(p.heard)<<32^uint64(t))%uint64(p.gap) == 0
}

func (p *replanProc) Decide(t int) bool {
	if p.planned != 0 && t != p.planned && p.alg.bad == "" {
		p.alg.bad = fmt.Sprintf("process %d: Decide(%d), but its last NextSend named round %d", p.id, t, p.planned)
	}
	p.decided = t
	return p.sends(t)
}

func (p *replanProc) NextSend(r int) int {
	t := math.MaxInt
	if p.heard < 6 {
		for t = r; !p.sends(t); t++ {
		}
	}
	if p.planned >= r && p.planned != t && p.decided < r-1 {
		p.alg.stale++
	}
	p.planned = t
	return t
}

func (p *replanProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered {
		p.heard++
	}
}

// compareRuns steps a run of alg and a run of ref in lockstep and fails at
// the first round whose senders differ, or when the Results differ.
func compareRuns(t *testing.T, name string, sched graph.Schedule, alg, ref sim.Algorithm, adv sim.Adversary, cfg sim.Config) {
	t.Helper()
	got, err := sim.Start(sched, alg, adv, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := sim.Start(sched, ref, adv, cfg)
	if err != nil {
		t.Fatalf("%s: hidden: %v", name, err)
	}
	lockstep(t, name, got, want)
}

// lockstep steps got and want together and fails at the first round whose
// Step outcome or senders differ, or when the final Results differ.
func lockstep(t *testing.T, name string, got, want *sim.Execution) {
	t.Helper()
	for done := false; !done; {
		var err error
		done, err = got.Step()
		wantDone, wantErr := want.Step()
		if !reflect.DeepEqual(err, wantErr) || done != wantDone {
			t.Fatalf("%s round %d: Step = (%v, %v), reference (%v, %v)", name, got.Round(), done, err, wantDone, wantErr)
		}
		if !slices.Equal(got.Senders(), want.Senders()) {
			t.Fatalf("%s: first divergence in round %d: senders %v, reference %v", name, got.Round(), got.Senders(), want.Senders())
		}
	}
	if !reflect.DeepEqual(got.Result(), want.Result()) {
		t.Fatalf("%s: Result %+v, reference %+v", name, got.Result(), want.Result())
	}
}

// deafScript is the scripted algorithm declaring deaf holders.
type deafScript struct{ *scriptAlg }

func (deafScript) HoldersIgnoreReceptions() bool { return true }

// TestDeafHoldersSkipOnlyHolders: under deaf holders the loop calls Receive
// on a node in exactly the rounds it is active without the message at the
// start of the round, so it still hears its silences, collisions and the
// round the message arrives; without the declaration it hears every round.
func TestDeafHoldersSkipOnlyHolders(t *testing.T) {
	const n = 5
	every := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}
	sends := map[int]map[int]bool{}
	for pid := 1; pid <= n; pid++ {
		sends[pid] = every
	}
	for _, deaf := range []bool{false, true} {
		script := newScriptAlg(sends, false)
		var alg sim.Algorithm = script
		if deaf {
			alg = deafScript{script}
		}
		res, err := sim.Run(mustLine(t, n), alg, adversary.Benign{}, sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for node, pid := range res.ProcOf {
			var heard []int
			for r := 1; r <= res.Rounds; r++ {
				if _, ok := script.procs[pid].recs[r]; ok {
					heard = append(heard, r)
				}
			}
			var want []int
			for r := 1; r <= res.Rounds; r++ {
				if !deaf || r <= res.FirstReceive[node] {
					want = append(want, r)
				}
			}
			if !slices.Equal(heard, want) {
				t.Fatalf("deaf=%v node %d (first receive %d): Receive in rounds %v, want %v", deaf, node, res.FirstReceive[node], heard, want)
			}
		}
	}
}

// resolveCall is one Resolve call as the adversary saw it.
type resolveCall struct {
	round    int
	node     graph.NodeID
	holder   bool           // node held the message at the start of the round
	active   []graph.NodeID // the nodes View.Active reported at the call
	reaching []graph.NodeID
}

// resolveRecorder wraps a buffered adversary and logs every Resolve call.
// It forwards DeliverInto, so the inner adversary's deliveries and its
// SilenceCollisions promises reach the run unchanged.
//
// It also checks the wake-ups of the reception walk: a node that becomes
// active after the round's DeliverInto was woken earlier in the same
// ascending walk, so it must be below the node being resolved. wakeCalls
// counts the Resolve calls that saw such a node.
type resolveRecorder struct {
	sim.Adversary
	bd          sim.BufferedDeliverer
	calls       []resolveCall
	roundActive []graph.NodeID // the active nodes at this round's DeliverInto
	wakeCalls   int
	badWake     string // the first wake-up seen out of walk order
}

func newResolveRecorder(adv sim.Adversary) *resolveRecorder {
	return &resolveRecorder{Adversary: adv, bd: adv.(sim.BufferedDeliverer)}
}

// activeNodes lists the nodes v reports active, ascending.
func activeNodes(v *sim.View) []graph.NodeID {
	var out []graph.NodeID
	for u := graph.NodeID(0); int(u) < v.Dual.N(); u++ {
		if v.Active(u) {
			out = append(out, u)
		}
	}
	return out
}

func (r *resolveRecorder) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	r.roundActive = activeNodes(v)
	r.bd.DeliverInto(v, senders, sink)
}

func (r *resolveRecorder) Resolve(v *sim.View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	active := activeNodes(v)
	woken := false
	for _, u := range active {
		if _, was := slices.BinarySearch(r.roundActive, u); was {
			continue
		}
		woken = true
		if u >= node && r.badWake == "" {
			r.badWake = fmt.Sprintf("round %d: node %d woke before the Resolve call on node %d", v.Round, u, node)
		}
	}
	if woken {
		r.wakeCalls++
	}
	r.calls = append(r.calls, resolveCall{v.Round, node, v.HasMessage(node), active, slices.Clone(reaching)})
	return r.Adversary.Resolve(v, node, reaching)
}

// TestResolveCallsMatchHiddenContracts checks what the adversary sees of a
// run under CR4: the sequence of Resolve calls, each with its round, node,
// active set and reaching list, is the same whether the round loop uses the
// optional contracts or not. Deaf holders skip their receptions, but a
// collided holder in a round the adversary did not silence still gets its
// Resolve call. A node that an asynchronous start wakes earlier in the
// reception walk is already active at a later Resolve call of that round,
// with the contracts on and hidden. Random(0.5) never silences and draws from View.Rng in Resolve;
// the greedy collider silences the rounds in which every sender holds the
// message. The cases cover sync and async starts and static, churn and
// fade schedules; every fourth network has n > 128, so the loop's bitsets
// span several words.
func TestResolveCallsMatchHiddenContracts(t *testing.T) {
	starts := []sim.StartRule{sim.SyncStart, sim.AsyncStart}
	cases := 24
	if testing.Short() {
		cases = 12
	}
	holderCalls, wakeCalls := 0, 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		n := 5 + rng.Intn(12)
		if i%4 == 3 {
			n = 129 + rng.Intn(60)
		}
		d, err := graph.RandomDual(n, min(0.2, 6/float64(n)), min(0.5, 12/float64(n)), rng)
		if err != nil {
			t.Fatal(err)
		}
		var sched graph.Schedule = graph.Static(d)
		switch i % 3 {
		case 1:
			sched, err = graph.NewChurn(d, 1+rng.Intn(4), 0.3)
		case 2:
			sched, err = graph.NewFade(d, 1+rng.Intn(4), 0.3)
		}
		if err != nil {
			t.Fatal(err)
		}
		var adv sim.Adversary = adversary.GreedyCollider{}
		if i/6%2 == 0 {
			adv = must(adversary.NewRandom(0.5))
		}
		cfg := sim.Config{Rule: sim.CR4, Start: starts[i/3%2], Seed: rng.Int63(), MaxRounds: 1500}
		for _, alg := range builtIns(d) {
			name := fmt.Sprintf("case %d n=%d %s (%T, %T, %v)", i, n, alg.Name(), sched, adv, cfg.Start)
			got, want := newResolveRecorder(adv), newResolveRecorder(adv)
			res, err := sim.RunDynamic(sched, alg, got, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref, err := sim.RunDynamic(sched, hidden{alg}, want, cfg)
			if err != nil {
				t.Fatalf("%s: hidden: %v", name, err)
			}
			for _, r := range []*resolveRecorder{got, want} {
				if r.badWake != "" {
					t.Fatalf("%s: %s", name, r.badWake)
				}
			}
			wakeCalls += got.wakeCalls
			for k := range min(len(got.calls), len(want.calls)) {
				if !reflect.DeepEqual(got.calls[k], want.calls[k]) {
					t.Fatalf("%s: Resolve call %d is %+v, reference %+v", name, k, got.calls[k], want.calls[k])
				}
			}
			if len(got.calls) != len(want.calls) {
				t.Fatalf("%s: %d Resolve calls, reference %d", name, len(got.calls), len(want.calls))
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s: Result %+v, reference %+v", name, res, ref)
			}
			for _, c := range got.calls {
				if c.holder {
					holderCalls++
				}
			}
		}
	}
	if holderCalls == 0 {
		t.Fatal("no Resolve call on a holder: the cases do not exercise the deaf-holder exception")
	}
	if wakeCalls == 0 {
		t.Fatal("no Resolve call after a wake-up in its walk: the cases do not exercise mid-walk activation")
	}
	t.Logf("%d Resolve calls on holders, %d after a wake-up in the same walk", holderCalls, wakeCalls)
}
