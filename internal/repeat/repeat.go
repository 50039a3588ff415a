// Package repeat implements repeated broadcast in dual graphs, the future
// work the paper's conclusion singles out: the source must disseminate a
// stream of messages m_1, m_2, ..., m_M rather than a single one, and
// long-term efficiency (throughput) matters as much as single-message
// latency.
//
// Messages are distinguishable (sequence numbers), a transmission carries
// exactly one message, and receptions follow the same collision rules as the
// single-message model. Two relay policies are provided:
//
//   - Sequential: a fresh single-message protocol per message, one after the
//     other, each given a fixed round budget (the baseline a naive user
//     would build from the single-shot primitive);
//   - Pipelined: all messages in flight at once, each node relaying the
//     newest message it knows (round-robin or harmonic transmission
//     schedule), which overlaps the per-message latencies.
package repeat

import (
	"errors"
	"fmt"
	"math/rand"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Message is a sequence number 1..M.
type Message int

// Process is one automaton of a repeated-broadcast protocol.
type Process interface {
	// Start activates the process; initial lists the messages it holds
	// (non-empty only at the source).
	Start(round int, initial []Message)
	// Decide returns whether to transmit this round and which message.
	Decide(round int) (send bool, msg Message)
	// Learn delivers a message the process did not know, received in the
	// given round. Silence, collisions, the process's own transmissions and
	// repeats of known messages carry nothing new and are not reported.
	Learn(round int, msg Message)
}

// Protocol creates processes.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// NewProcess creates the process with identifier id of an n-node
	// network that must disseminate m messages.
	NewProcess(id, n, m int, rng *rand.Rand) Process
}

// Config parameterizes a repeated-broadcast run.
type Config struct {
	// Messages is the stream length M.
	Messages int
	// MaxRounds caps the execution.
	MaxRounds int
	// Seed drives protocol randomness.
	Seed int64
}

// Result reports a repeated-broadcast execution.
type Result struct {
	// Completed reports whether all M messages reached all nodes.
	Completed bool
	// Rounds is the round in which the last (node, message) delivery
	// happened, or the executed rounds if incomplete.
	Rounds int
	// PerMessage[m-1] is the completion round of message m (-1 if never).
	PerMessage []int
	// Throughput is Messages/Rounds for completed runs (0 otherwise).
	Throughput float64
	// Transmissions counts all transmissions.
	Transmissions int
}

// ErrBadConfig reports invalid run parameters.
var ErrBadConfig = errors.New("invalid repeated-broadcast config")

// Run executes the protocol on the dual graph network with collision rule
// CR4 (silence resolution) and asynchronous starts, under a greedy jammer
// that extends adversary.GreedyCollider to many messages: a non-sender
// reached by one message it lacks also gets another sender's message over an
// unreliable edge, when one exists, so the lone delivery collides. Every
// round is a sim.Execution step; the protocol's processes run wrapped as
// sim processes, identity-assigned (process id = node + 1).
func Run(d *graph.Dual, p Protocol, cfg Config) (*Result, error) {
	if cfg.Messages < 1 {
		return nil, fmt.Errorf("%w: need at least 1 message", ErrBadConfig)
	}
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("%w: need MaxRounds >= 1", ErrBadConfig)
	}
	n, m := d.N(), cfg.Messages
	r := &run{
		p:       p,
		n:       n,
		m:       m,
		sentMsg: make([]Message, n),
		known:   make([]bool, n*m),
		holders: make([]int, m),
		learned: m,
		res:     &Result{PerMessage: make([]int, m)},
	}
	for i := range m {
		r.known[int(d.Source())*m+i] = true
		r.holders[i] = 1
		r.res.PerMessage[i] = -1
	}
	ex, err := sim.Start(graph.Static(d), r, jammer{r: r}, sim.Config{
		Rule:      sim.CR4,
		Start:     sim.AsyncStart,
		MaxRounds: cfg.MaxRounds,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	for done := false; !done; done = r.learned == n*m || ex.Round() == cfg.MaxRounds {
		if _, err := ex.Step(); err != nil {
			return nil, err
		}
	}
	res := r.res
	res.Rounds = ex.Round()
	res.Transmissions = ex.Result().Transmissions
	res.Completed = r.learned == n*m
	if res.Completed {
		res.Throughput = float64(m) / float64(res.Rounds)
	}
	return res, nil
}

// run is the state one repeated-broadcast execution shares between its
// processes and its jammer. It is the sim.Algorithm of the execution.
type run struct {
	p       Protocol
	n, m    int
	sentMsg []Message // per node: the message it sent in its last transmission
	known   []bool    // known[node*m+msg-1]: node holds message msg
	holders []int     // holders[msg-1]: nodes that hold message msg
	learned int       // (node, message) pairs held
	res     *Result
	err     error // the first transmission of a message its sender lacks
}

// Name implements sim.Algorithm.
func (r *run) Name() string { return r.p.Name() }

// NewProcess implements sim.Algorithm: the jammer assigns process id to
// node id-1, so the wrapper knows its node.
func (r *run) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	return &proc{r: r, node: id - 1, p: r.p.NewProcess(id, n, r.m, rng)}
}

// knows reports whether node holds msg.
func (r *run) knows(node int, msg Message) bool {
	return msg >= 1 && int(msg) <= r.m && r.known[node*r.m+int(msg)-1]
}

// proc runs a protocol process as a sim process: it records the message of
// each transmission, and on a delivery it teaches the receiver the sender's
// message if that message is new to it.
type proc struct {
	r    *run
	node int
	p    Process
}

func (w *proc) Start(round int, hasMessage bool) {
	var initial []Message
	if hasMessage {
		initial = make([]Message, w.r.m)
		for i := range initial {
			initial[i] = Message(i + 1)
		}
	}
	w.p.Start(round, initial)
}

func (w *proc) Decide(round int) bool {
	send, msg := w.p.Decide(round)
	if send {
		w.r.sentMsg[w.node] = msg
		if !w.r.knows(w.node, msg) && w.r.err == nil {
			w.r.err = fmt.Errorf("node %d transmitted unknown message %d in round %d", w.node, msg, round)
		}
	}
	return send
}

// Receive ignores the receiver's own transmissions without a test of Own: a
// sender holds what it sends, or the round has already failed.
func (w *proc) Receive(round int, rec sim.Reception) {
	r := w.r
	msg := r.sentMsg[rec.From]
	if rec.Kind != sim.Delivered || r.knows(w.node, msg) {
		return
	}
	r.known[w.node*r.m+int(msg)-1] = true
	r.learned++
	if r.holders[msg-1]++; r.holders[msg-1] == r.n {
		r.res.PerMessage[msg-1] = round
	}
	w.p.Learn(round, msg)
}

// jammer is GreedyCollider with a holder test per message: it jams a lone
// delivery of a message its target lacks with the lowest other sender that
// has an unreliable edge to the target, and resolves every CR4 collision to
// silence. It also fails the round in which a process sent a message it
// lacks.
type jammer struct {
	adversary.GreedyCollider
	r *run
}

// Deliver implements sim.Adversary as the map form of DeliverInto.
func (j jammer) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(j, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer.
func (j jammer) DeliverInto(v *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
	if j.r.err != nil {
		sink.Fail(j.r.err)
		return
	}
	sink.SilenceCollisions()
	sink.EachReachedOnce(func(u, from graph.NodeID) bool {
		if v.Sent[u] || j.r.knows(int(u), j.r.sentMsg[from]) {
			return true
		}
		for _, w := range v.UnreliableIn(u) {
			if v.Sent[w] && w != from {
				sink.AddInArc(w, u)
				break
			}
		}
		return true
	})
}

// Sequential runs one single-message protocol per message, back to back,
// giving each message a fixed round budget before starting the next.
type Sequential struct {
	// Budget is the number of rounds allocated to each message.
	Budget int
	// Harmonic selects harmonic transmission within a slot (round robin
	// otherwise).
	Harmonic bool
	// T is the harmonic level length when Harmonic is set.
	T int
}

var _ Protocol = (*Sequential)(nil)

// NewSequential builds the sequential baseline with the given per-message
// round budget.
func NewSequential(budget int, harmonic bool, t int) (*Sequential, error) {
	if budget < 1 {
		return nil, fmt.Errorf("sequential needs budget >= 1, got %d", budget)
	}
	if harmonic && t < 1 {
		return nil, fmt.Errorf("sequential harmonic needs T >= 1, got %d", t)
	}
	return &Sequential{Budget: budget, Harmonic: harmonic, T: t}, nil
}

// Name implements Protocol.
func (s *Sequential) Name() string {
	if s.Harmonic {
		return fmt.Sprintf("sequential-harmonic(B=%d,T=%d)", s.Budget, s.T)
	}
	return fmt.Sprintf("sequential-rr(B=%d)", s.Budget)
}

// NewProcess implements Protocol.
func (s *Sequential) NewProcess(id, n, m int, rng *rand.Rand) Process {
	return &sequentialProc{cfg: s, id: id, n: n, rng: rng, recv: make(map[Message]int)}
}

type sequentialProc struct {
	cfg  *Sequential
	id   int
	n    int
	rng  *rand.Rand
	recv map[Message]int // message -> round first known
}

func (p *sequentialProc) Start(round int, initial []Message) {
	for _, m := range initial {
		p.recv[m] = 0
	}
}

// slotOf returns which message is being disseminated at the given round.
func (p *sequentialProc) slotOf(round int) Message {
	return Message((round-1)/p.cfg.Budget + 1)
}

func (p *sequentialProc) Decide(round int) (bool, Message) {
	msg := p.slotOf(round)
	got, ok := p.recv[msg]
	if !ok {
		return false, 0
	}
	if p.cfg.Harmonic {
		prob := core.SendProbability(round, got, p.cfg.T)
		return p.rng != nil && p.rng.Float64() < prob, msg
	}
	return (round-1)%p.n == p.id-1, msg
}

func (p *sequentialProc) Learn(round int, msg Message) { p.recv[msg] = round }

// Pipelined keeps all messages in flight: each node cycles through every
// message it knows (so no message is starved even when deliveries arrive out
// of order), transmitting on a round-robin or harmonic schedule. Overlapping
// the per-message dissemination amortizes the per-hop contention cost that
// the sequential baseline pays M separate times.
type Pipelined struct {
	// Harmonic selects harmonic transmission (round robin otherwise).
	Harmonic bool
	// T is the harmonic level length.
	T int
}

var _ Protocol = (*Pipelined)(nil)

// NewPipelined builds the pipelined policy.
func NewPipelined(harmonic bool, t int) (*Pipelined, error) {
	if harmonic && t < 1 {
		return nil, fmt.Errorf("pipelined harmonic needs T >= 1, got %d", t)
	}
	return &Pipelined{Harmonic: harmonic, T: t}, nil
}

// Name implements Protocol.
func (p *Pipelined) Name() string {
	if p.Harmonic {
		return fmt.Sprintf("pipelined-harmonic(T=%d)", p.T)
	}
	return "pipelined-rr"
}

// NewProcess implements Protocol.
func (p *Pipelined) NewProcess(id, n, m int, rng *rand.Rand) Process {
	return &pipelinedProc{cfg: p, id: id, n: n, rng: rng, recv: make(map[Message]int)}
}

type pipelinedProc struct {
	cfg    *Pipelined
	id     int
	n      int
	rng    *rand.Rand
	recv   map[Message]int
	order  []Message // known messages in learning order
	cursor int
}

func (p *pipelinedProc) Start(round int, initial []Message) {
	for _, m := range initial {
		p.Learn(0, m)
	}
}

func (p *pipelinedProc) Learn(round int, msg Message) {
	p.recv[msg] = round
	p.order = append(p.order, msg)
}

func (p *pipelinedProc) Decide(round int) (bool, Message) {
	if len(p.order) == 0 {
		return false, 0
	}
	msg := p.order[p.cursor%len(p.order)]
	send := false
	if p.cfg.Harmonic {
		prob := core.SendProbability(round, p.recv[msg], p.cfg.T)
		send = p.rng != nil && p.rng.Float64() < prob
	} else {
		send = (round-1)%p.n == p.id-1
	}
	if send {
		p.cursor = (p.cursor + 1) % len(p.order)
	}
	return send, msg
}
