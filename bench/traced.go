package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dualgraph"
	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// allocTrials is how many leading trials of each cell the untraced
// in-process pass runs: enough for stable allocation counts and for the
// denominator of trace.overhead, few enough to keep the pass short.
const allocTrials = 32

// layerRun is the outcome of one traced pass over a workload's sweeps.
type layerRun struct {
	tr    *tracer
	lines []string // every cell line, in sweep and cell order

	cellsNs, buildNs, formatNs, mergeNs, appendNs int64
	shards, records, ckptBytes                    int64
	rounds, nodeRounds                            float64

	// The untraced pass over each cell's first shards, and the traced
	// pass's time on the same shards.
	allocBytes, mallocs     uint64
	allocTrialCount         int64
	untracedNs, tracedFirst int64
}

// timedSince adds the time since start to *acc and records it as a span.
func (lr *layerRun) timedSince(acc *int64, layer int, name string, start int64) {
	d := lr.tr.now() - start
	*acc += d
	lr.tr.record(layer, name, start, d, lr.tr.cell)
}

// tracedPass runs the workload's sweeps in-process at one worker, with every
// cell's schedule, algorithm and adversary wrapped by the tracer: Sweep.Cells,
// Scenario.Build, then engine.FoldShardContext per engine.ShardRange shard,
// merged in shard order and rendered by spec.FormatSummary — the lines dgsim
// prints. Workloads that checkpoint also append a record per shard, as
// dgsim -checkpoint does.
func tracedPass(ctx context.Context, w *workload, ins []*input, ckptPath string) (*layerRun, error) {
	lr := &layerRun{tr: newTracer()}
	for _, in := range ins {
		if err := lr.sweep(ctx, w, in, ckptPath); err != nil {
			return nil, fmt.Errorf("traced %s: %w", in.name, err)
		}
	}
	return lr, nil
}

func (lr *layerRun) sweep(ctx context.Context, w *workload, in *input, ckptPath string) error {
	tr := lr.tr
	sc := engine.StreamConfig{}
	start := tr.now()
	blob, err := os.ReadFile(in.path)
	if err != nil {
		return err
	}
	var sw spec.Sweep
	if err := json.Unmarshal(blob, &sw); err != nil {
		return err
	}
	cells, err := sw.Cells()
	if err != nil {
		return err
	}
	lr.timedSince(&lr.cellsNs, layerSpec, "cells", start)
	trials := max(sw.Trials, 1)

	var ck *dualgraph.CheckpointWriter
	var meta dualgraph.CheckpointMeta
	if w.checkpoint {
		hash, err := sw.Hash()
		if err != nil {
			return err
		}
		meta = dualgraph.CheckpointMetaFor(hash, len(cells), trials, sc)
		if ck, err = dualgraph.CreateCheckpoint(ckptPath, meta); err != nil {
			return err
		}
		defer ck.Close()
	}

	shards := engine.Shards(trials)
	first := 1 // shards covering the first allocTrials trials
	for s := 1; s < shards; s++ {
		if _, hi := engine.ShardRange(trials, s); hi <= allocTrials {
			first = s + 1
		}
	}
	for c, cell := range cells {
		tr.cell = int32(c)
		start := tr.now()
		b, err := cell.Scenario.Build()
		if err != nil {
			return err
		}
		lr.timedSince(&lr.buildNs, layerSpec, "build", start)
		plain := engine.Trial{Net: b.Net, Sched: b.Sched, Alg: b.Alg, Adv: b.Adv, Cfg: b.Cfg}
		traced := engine.Trial{Net: b.Net, Sched: tr.schedule(b.Sched), Alg: tr.algorithm(b.Alg), Adv: tr.adversary(b.Adv), Cfg: b.Cfg}
		if err := lr.untraced(ctx, plain, trials, first, sc); err != nil {
			return err
		}

		var dst *engine.TrialSummary
		for s := 0; s < shards; s++ {
			lo, hi := engine.ShardRange(trials, s)
			tr.beginShard(c, s, lo)
			sum, err := engine.FoldShardContext(ctx, traced, lo, hi, sc)
			d := tr.endShard()
			if err != nil {
				return err
			}
			lr.shards++
			if s < first {
				lr.tracedFirst += d
			}
			if ck != nil {
				// Append before the merge: the merge mutates shard 0's summary.
				start := tr.now()
				err := ck.Append(dualgraph.CheckpointRecord{Cell: c, Shard: s, TrialLo: lo, TrialHi: hi, Summary: sum})
				if err != nil {
					return err
				}
				lr.timedSince(&lr.appendNs, layerCheckpoint, "append", start)
				lr.records++
			}
			if dst == nil {
				dst = sum
				continue
			}
			start := tr.now()
			if err := dst.Merge(sum); err != nil {
				return err
			}
			lr.timedSince(&lr.mergeNs, layerEngine, "merge", start)
		}
		start = tr.now()
		line := cell.Label + ": " + spec.FormatSummary(dst)
		lr.timedSince(&lr.formatNs, layerSpec, "format", start)
		lr.lines = append(lr.lines, line)
		mean, err := dst.Rounds.Mean()
		if err != nil {
			return err
		}
		lr.rounds += mean * float64(dst.Trials)
		lr.nodeRounds += mean * float64(dst.Trials) * float64(b.Net.N())
	}
	if ck == nil {
		return nil
	}
	if err := ck.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(ckptPath)
	if err != nil {
		return err
	}
	lr.ckptBytes += fi.Size()
	recs, _, err := dualgraph.RecoverCheckpoint(ckptPath, meta)
	if err != nil {
		return err
	}
	if want := len(cells) * shards; len(recs) != want {
		return fmt.Errorf("checkpoint recovered %d records, want %d", len(recs), want)
	}
	return nil
}

// untraced runs the cell's first shards without wrappers and records their
// allocations and wall time.
func (lr *layerRun) untraced(ctx context.Context, t engine.Trial, trials, shards int, sc engine.StreamConfig) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for s := 0; s < shards; s++ {
		lo, hi := engine.ShardRange(trials, s)
		if _, err := engine.FoldShardContext(ctx, t, lo, hi, sc); err != nil {
			return err
		}
		n += hi - lo
	}
	lr.untracedNs += int64(time.Since(start))
	runtime.ReadMemStats(&after)
	lr.allocBytes += after.TotalAlloc - before.TotalAlloc
	lr.mallocs += after.Mallocs - before.Mallocs
	lr.allocTrialCount += int64(n)
	return nil
}

// metrics derives the per-layer metrics. utilization comes from the
// untraced run of the real binaries.
//
// A trial span adds up as Epoch(0), then the setup window up to the first
// Decide, then the round loop. The clock reads the tracer itself spends on
// timed calls are taken out of each part, so that
//
//	sim.trial_s = graph.epoch_s + sim.trial_setup_s + setup calls
//	              + per-round calls + sim.loop_self_s,
//
// where the setup calls are NewProcess, AssignProcs, ForkRun and Start
// before the first Decide. Only the wrappers' own call overhead, a few ns
// per call, stays in sim.loop_self_s.
func (lr *layerRun) metrics(utilization float64) map[string]float64 {
	t := lr.tr
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	sum := func(cs ...*callStats) (est, clock float64) {
		for _, c := range cs {
			est += c.seconds()
			clock += sec(c.clock)
		}
		return est, clock
	}
	setupCalls, setupClock := sum(&t.newProc, &t.startSetup, &t.assign, &t.fork)
	loopCalls, loopClock := sum(&t.decide, &t.receive, &t.deliver, &t.resolve, &t.startLoop)
	epochs, epochClock := sum(&t.epoch0, &t.epoch)
	setup := sec(t.setupWindowNs) - setupCalls - setupClock
	trial := sec(t.trialNs) - setupClock - loopClock - epochClock
	loopSelf := trial - epochs - setup - setupCalls - loopCalls
	return map[string]float64{
		"spec.cells_s":                sec(lr.cellsNs),
		"spec.build_s":                sec(lr.buildNs),
		"spec.format_s":               sec(lr.formatNs),
		"graph.epoch_calls":           float64(t.epoch.calls),
		"graph.epoch_swaps":           float64(t.epochSwaps),
		"graph.epoch_s":               epochs,
		"graph.epoch_us_per_call":     epochs * 1e6 / float64(t.epoch0.calls+t.epoch.calls),
		"sim.trials":                  float64(t.trials),
		"sim.rounds":                  lr.rounds,
		"sim.node_rounds":             lr.nodeRounds,
		"sim.trial_s":                 trial,
		"sim.trial_setup_s":           setup,
		"sim.trial_setup_us_per_node": setup * 1e6 / float64(t.nodes),
		"sim.loop_self_s":             loopSelf,
		"sim.loop_ns_per_node_round":  loopSelf * 1e9 / lr.nodeRounds,
		"sim.alloc_kb_per_trial":      float64(lr.allocBytes) / 1024 / float64(lr.allocTrialCount),
		"sim.mallocs_per_trial":       float64(lr.mallocs) / float64(lr.allocTrialCount),
		"core.newprocess_s":           t.newProc.seconds(),
		"core.start_s":                t.startSetup.seconds() + t.startLoop.seconds(),
		"core.decide_calls":           float64(t.decide.calls),
		"core.decide_s":               t.decide.seconds(),
		"core.receive_calls":          float64(t.receive.calls),
		"core.receive_s":              t.receive.seconds(),
		"adversary.deliver_calls":     float64(t.deliver.calls),
		"adversary.deliver_s":         t.deliver.seconds(),
		"adversary.resolve_calls":     float64(t.resolve.calls),
		"adversary.resolve_s":         t.resolve.seconds(),
		"adversary.assign_s":          t.assign.seconds(),
		"adversary.fork_s":            t.fork.seconds(),
		"engine.shards":               float64(lr.shards),
		"engine.fold_s":               sec(t.shardNs - t.trialNs),
		"engine.merge_s":              sec(lr.mergeNs),
		"engine.utilization":          utilization,
		"checkpoint.records":          float64(lr.records),
		"checkpoint.bytes":            float64(lr.ckptBytes),
		"checkpoint.append_s":         sec(lr.appendNs),
		"trace.overhead":              float64(lr.tracedFirst) / float64(lr.untracedNs),
	}
}

// writeTrace writes the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open: one track per layer.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	for l, name := range layerNames {
		if l > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, l+1, name)
	}
	for _, s := range t.spans {
		fmt.Fprintf(bw, `,{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"cell":%d,"item":%d}}`,
			s.name, layerNames[s.layer], float64(s.start)/1e3, float64(s.dur)/1e3, s.layer+1, s.cell, s.item)
	}
	fmt.Fprintln(bw, "]}")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
