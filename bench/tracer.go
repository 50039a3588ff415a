package main

import (
	"math/rand"
	"time"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Layers, in the order the trace file lists them.
const (
	layerSpec = iota
	layerGraph
	layerSim
	layerCore
	layerAdversary
	layerEngine
	layerCheckpoint
	numLayers
)

var layerNames = [numLayers]string{"spec", "graph", "sim", "core", "adversary", "engine", "checkpoint"}

// spansPerLayer caps the spans kept per layer, which bounds the trace file
// and the memory the traced pass holds.
const spansPerLayer = 20000

// samplePeriod is the mean gap between timed per-round callbacks. Timing
// every call inflated runs 2–9×; timing one call in 64 and scaling up keeps
// the traced pass close to the untraced one.
const samplePeriod = 64

type span struct {
	layer      uint8
	name       string
	start, dur int64 // ns since the tracer's base
	cell, item int32 // the cell, and the trial or shard within it
}

// callStats counts every call of one kind and sums the durations of the
// timed ones. Per-trial and per-node callbacks are timed on every call;
// per-round ones on a deterministic sample (sample) whose gaps average
// samplePeriod and are scrambled so that it does not lock onto node order.
type callStats struct {
	calls, timed int64
	ns           int64 // Σ timed durations, net of the clock's own cost
	clock        int64 // Σ time the clock reads of the timed calls took
	countdown    int64
}

// sample counts a call and reports whether to time it.
func (c *callStats) sample() bool {
	c.calls++
	c.countdown--
	if c.countdown > 0 {
		return false
	}
	// splitmix64 of the call index picks the next gap in 1..2*samplePeriod-1.
	z := uint64(c.calls) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= z >> 27
	c.countdown = 1 + int64(z%(2*samplePeriod-1))
	return true
}

// seconds estimates the total time of all calls from the timed ones.
func (c *callStats) seconds() float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.timed) * float64(c.calls) / 1e9
}

// stamp is the start of a timed call.
type stamp struct {
	at   int64 // clock after the second of two back-to-back reads
	cost int64 // the gap between those reads: one read's cost, in place
}

// tracer times the calls the simulator makes into each layer, from outside:
// the traced pass wraps every cell's schedule, algorithm and adversary, and
// the wrappers report here. It is not safe for concurrent use; the traced
// pass runs at one worker.
type tracer struct {
	base time.Time

	decide, receive, deliver, resolve callStats // per round, sampled
	startSetup, startLoop             callStats // Process.Start before / after the first Decide
	newProc, assign, fork             callStats // per trial or per node
	epoch0, epoch                     callStats // Epoch(0) / Epoch(e ≥ 1)
	epochSwaps                        int64

	// The running shard and trial.
	cell, shard, nextTrial int32
	shardStart             int64
	inTrial, looping       bool
	trial                  int32
	trialStart, epoch0End  int64

	trials        int64
	nodes         int64 // Σ n over trials
	trialNs       int64
	shardNs       int64
	setupWindowNs int64 // Σ (first Decide − Epoch(0) return)

	spans     []span
	spanCount [numLayers]int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin starts timing a call. Measuring the clock's cost in place, rather
// than once in a calibration loop, keeps the estimate unbiased for calls
// that take no longer than a clock read.
func (t *tracer) begin() stamp {
	a := t.now()
	b := t.now()
	return stamp{b, b - a}
}

// end finishes a timed call of kind c and returns its net duration; the
// three clock reads it took are charged to c.clock.
func (t *tracer) end(c *callStats, s stamp) int64 {
	d := t.now() - s.at - s.cost
	c.timed++
	c.ns += d
	c.clock += 3 * s.cost
	return d
}

// always times a call that is timed on every invocation.
func (t *tracer) always(c *callStats, s stamp) int64 {
	c.calls++
	return t.end(c, s)
}

// sampled finishes a sampled call and keeps it as a span.
func (t *tracer) sampled(c *callStats, layer int, name string, s stamp) {
	d := t.end(c, s)
	t.record(layer, name, s.at, d, t.trial)
}

// record keeps a span unless its layer is at its cap.
func (t *tracer) record(layer int, name string, start, dur int64, item int32) {
	if t.spanCount[layer] >= spansPerLayer {
		return
	}
	t.spanCount[layer]++
	t.spans = append(t.spans, span{uint8(layer), name, start, dur, t.cell, item})
}

// beginShard marks the start of an engine.FoldShardContext call over the
// trials [lo, ·) of cell.
func (t *tracer) beginShard(cell, shard, lo int) {
	t.cell, t.shard, t.nextTrial = int32(cell), int32(shard), int32(lo)
	t.shardStart = t.now()
}

// endShard closes the shard and its last trial; it returns the shard span.
func (t *tracer) endShard() int64 {
	end := t.now()
	if t.inTrial {
		t.endTrial(end)
	}
	d := end - t.shardStart
	t.shardNs += d
	t.record(layerEngine, "shard", t.shardStart, d, t.shard)
	return d
}

// beginTrial opens a trial at its Epoch(0) call. A trial runs until the next
// trial's Epoch(0) or the end of its shard, so the engine's per-trial fold
// of the result falls inside the trial span.
func (t *tracer) beginTrial(at int64) {
	if t.inTrial {
		t.endTrial(at)
	}
	t.inTrial, t.looping = true, false
	t.trial = t.nextTrial
	t.nextTrial++
	t.trialStart = at
}

func (t *tracer) endTrial(end int64) {
	if !t.looping {
		t.beginLoopAt(end)
	}
	t.inTrial = false
	t.trials++
	t.trialNs += end - t.trialStart
	t.record(layerSim, "trial", t.trialStart, end-t.trialStart, t.trial)
}

// beginLoopAt marks the first Decide of the running trial: the end of its
// setup.
func (t *tracer) beginLoopAt(at int64) {
	t.looping = true
	t.setupWindowNs += at - t.epoch0End
	t.record(layerSim, "setup", t.epoch0End, at-t.epoch0End, t.trial)
}

func (t *tracer) schedule(s graph.Schedule) graph.Schedule { return &tracedSchedule{inner: s, t: t} }

func (t *tracer) algorithm(a sim.Algorithm) sim.Algorithm { return &tracedAlgorithm{inner: a, t: t} }

// adversary wraps a so that the wrapper implements exactly the optional
// interfaces a does: a map-only adversary stays on the simulator's map path.
func (t *tracer) adversary(a sim.Adversary) sim.Adversary {
	base := &tracedAdversary{inner: a, t: t}
	bd, buffered := a.(sim.BufferedDeliverer)
	f, forks := a.(sim.RunForker)
	switch {
	case buffered && forks:
		return &tracedBufferedForker{tracedBuffered{base, bd}, f}
	case buffered:
		return &tracedBuffered{base, bd}
	case forks:
		return &tracedForker{base, f}
	}
	return base
}

// tracedSchedule times Epoch; Epoch(0) marks the start of a trial.
type tracedSchedule struct {
	inner graph.Schedule
	t     *tracer
	cur   *graph.Dual // the running trial's current epoch
}

func (s *tracedSchedule) N() int           { return s.inner.N() }
func (s *tracedSchedule) EpochLength() int { return s.inner.EpochLength() }

func (s *tracedSchedule) Epoch(e int, runSeed int64) (*graph.Dual, error) {
	t := s.t
	st := t.begin()
	if e == 0 {
		t.beginTrial(st.at - st.cost)
	}
	d, err := s.inner.Epoch(e, runSeed)
	if e == 0 {
		t.epoch0End = st.at + st.cost + t.always(&t.epoch0, st)
		if d != nil {
			t.nodes += int64(d.N())
		}
	} else {
		t.record(layerGraph, "epoch", st.at, t.always(&t.epoch, st), t.trial)
		if d != s.cur {
			t.epochSwaps++
		}
	}
	s.cur = d
	return d, err
}

type tracedAlgorithm struct {
	inner sim.Algorithm
	t     *tracer
}

func (a *tracedAlgorithm) Name() string { return a.inner.Name() }

func (a *tracedAlgorithm) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	t := a.t
	st := t.begin()
	p := a.inner.NewProcess(id, n, rng)
	t.always(&t.newProc, st)
	return &tracedProcess{inner: p, t: t}
}

type tracedProcess struct {
	inner sim.Process
	t     *tracer
}

func (p *tracedProcess) Start(round int, hasMessage bool) {
	t := p.t
	c := &t.startSetup
	if t.looping {
		c = &t.startLoop
	}
	st := t.begin()
	p.inner.Start(round, hasMessage)
	t.always(c, st)
}

func (p *tracedProcess) Decide(round int) bool {
	t := p.t
	if !t.looping {
		t.beginLoopAt(t.now())
	}
	if !t.decide.sample() {
		return p.inner.Decide(round)
	}
	st := t.begin()
	r := p.inner.Decide(round)
	t.sampled(&t.decide, layerCore, "Decide", st)
	return r
}

func (p *tracedProcess) Receive(round int, r sim.Reception) {
	t := p.t
	if !t.receive.sample() {
		p.inner.Receive(round, r)
		return
	}
	st := t.begin()
	p.inner.Receive(round, r)
	t.sampled(&t.receive, layerCore, "Receive", st)
}

type tracedAdversary struct {
	inner sim.Adversary
	t     *tracer
}

func (a *tracedAdversary) Name() string { return a.inner.Name() }

func (a *tracedAdversary) AssignProcs(d *graph.Dual, rng *rand.Rand) ([]int, error) {
	t := a.t
	st := t.begin()
	p, err := a.inner.AssignProcs(d, rng)
	t.always(&t.assign, st)
	return p, err
}

func (a *tracedAdversary) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	t := a.t
	if !t.deliver.sample() {
		return a.inner.Deliver(v, senders)
	}
	st := t.begin()
	m := a.inner.Deliver(v, senders)
	t.sampled(&t.deliver, layerAdversary, "Deliver", st)
	return m
}

func (a *tracedAdversary) Resolve(v *sim.View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	t := a.t
	if !t.resolve.sample() {
		return a.inner.Resolve(v, node, reaching)
	}
	st := t.begin()
	r := a.inner.Resolve(v, node, reaching)
	t.sampled(&t.resolve, layerAdversary, "Resolve", st)
	return r
}

type tracedBuffered struct {
	*tracedAdversary
	bd sim.BufferedDeliverer
}

func (a *tracedBuffered) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	t := a.t
	if !t.deliver.sample() {
		a.bd.DeliverInto(v, senders, sink)
		return
	}
	st := t.begin()
	a.bd.DeliverInto(v, senders, sink)
	t.sampled(&t.deliver, layerAdversary, "DeliverInto", st)
}

type tracedForker struct {
	*tracedAdversary
	f sim.RunForker
}

func (a *tracedForker) ForkRun(sched graph.Schedule, alg sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	return forkRun(a.t, a.f, sched, alg, cfg)
}

type tracedBufferedForker struct {
	tracedBuffered
	f sim.RunForker
}

func (a *tracedBufferedForker) ForkRun(sched graph.Schedule, alg sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	return forkRun(a.t, a.f, sched, alg, cfg)
}

// forkRun hands the inner adversary the unwrapped schedule and algorithm, so
// its own planning neither counts as simulator calls nor pays for tracing,
// and wraps the fork it returns.
func forkRun(t *tracer, f sim.RunForker, sched graph.Schedule, alg sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	if s, ok := sched.(*tracedSchedule); ok {
		sched = s.inner
	}
	if a, ok := alg.(*tracedAlgorithm); ok {
		alg = a.inner
	}
	st := t.begin()
	adv, err := f.ForkRun(sched, alg, cfg)
	t.always(&t.fork, st)
	if err != nil || adv == nil {
		return adv, err
	}
	return t.adversary(adv), nil
}
