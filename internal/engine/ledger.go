// The unit ledger: the one bookkeeper of a grid's (cell, shard) work units.
// Every claimant — the in-process pool of Drain (and so RunGrid), or remote
// dgsimd workers behind the service's claim/report API — claims units from
// a Ledger and reports their accumulators back. The ledger validates each
// report, merges a cell's accumulators in shard-index order once its last
// shard lands, and delivers finished cells in enumeration order: one merge
// and one order, whichever claimant folded which unit, in whatever order.
//
// A claim with a positive lease expires lazily — a later Claim that finds it
// past its deadline re-leases the unit — so every claimed unit is eventually
// reported or returns to the pool. In-process claims carry no lease: their
// claimant lives exactly as long as the drain.
//
// Ledger.mu is a leaf lock: no ledger method calls out (onCell, onShard)
// while holding it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualgraph/internal/metrics"
	"dualgraph/internal/stats"
)

// ErrBadUnit marks a report the ledger refused without touching its state:
// a unit outside the grid, or an accumulator that does not cover exactly
// the unit's trials with the ledger's stream configuration.
var ErrBadUnit = errors.New("engine: bad unit")

type unitState uint8

const (
	unitPending unitState = iota // never claimed
	unitLeased                   // claimed, not yet reported
	unitDone                     // reported (or seeded)
)

// Lease is one claimed work unit: its key and half-open trial range.
type Lease struct {
	ShardKey
	TrialLo int
	TrialHi int
	// Reclaimed marks a unit whose previous lease expired unreported.
	Reclaimed bool
}

// Ledger tracks the cells × Shards(trials) work units of one grid until its
// last cell is delivered. Its methods are safe for concurrent use.
type Ledger struct {
	trials, shards int
	sc             StreamConfig
	proto          *TrialSummary // empty accumulator of sc: the compatibility reference
	onCell         func(cell int, sum *TrialSummary)

	mu         sync.Mutex
	state      []unitState
	deadline   []time.Time // per unit while leased with expiry; nil until the first such lease
	cursor     int         // lowest unit not done: where the expiry scan starts
	fresh      int         // every unit below it was claimed or is done
	undone     int
	accs       []*TrialSummary // per unit, set when done
	remaining  []int           // per cell, shards not yet done
	sums       []*TrialSummary // per cell, set once merged
	next       int             // lowest cell not yet delivered
	delivering bool            // a goroutine is walking the delivery frontier
}

// NewLedger returns the ledger of a grid of cells whose units fold trials
// into sc accumulators. onCell (may be nil) receives each merged cell once,
// in enumeration order; calls are serialized, made by whichever goroutine
// advanced the delivery frontier, never under the ledger's lock. With
// trials == 0 every cell is delivered before NewLedger returns.
func NewLedger(cells, trials int, sc StreamConfig, onCell func(cell int, sum *TrialSummary)) (*Ledger, error) {
	if trials < 0 {
		return nil, fmt.Errorf("engine: negative trial count %d", trials)
	}
	if _, err := stats.NewStream(sc.quantiles(), sc.ExactK); err != nil {
		return nil, err
	}
	shards := Shards(trials)
	l := &Ledger{
		trials: trials, shards: shards, sc: sc, proto: sc.NewSummary(), onCell: onCell,
		state:     make([]unitState, cells*shards),
		undone:    cells * shards,
		accs:      make([]*TrialSummary, cells*shards),
		remaining: make([]int, cells),
		sums:      make([]*TrialSummary, cells),
	}
	for c := range l.remaining {
		l.remaining[c] = shards
		if shards == 0 {
			l.sums[c] = sc.NewSummary()
		}
	}
	l.deliver()
	return l, nil
}

// check validates a report without touching the ledger.
func (l *Ledger) check(k ShardKey, sum *TrialSummary) error {
	if k.Cell < 0 || k.Cell >= len(l.sums) || k.Shard < 0 || k.Shard >= l.shards {
		return fmt.Errorf("%w (%d, %d): outside %d cells × %d shards", ErrBadUnit, k.Cell, k.Shard, len(l.sums), l.shards)
	}
	if sum == nil || sum.Rounds == nil || sum.Transmissions == nil {
		return fmt.Errorf("%w (%d, %d): no summary", ErrBadUnit, k.Cell, k.Shard)
	}
	if lo, hi := ShardRange(l.trials, k.Shard); sum.Trials != int64(hi-lo) {
		return fmt.Errorf("%w (%d, %d): summary covers %d trials, unit range [%d, %d) has %d",
			ErrBadUnit, k.Cell, k.Shard, sum.Trials, lo, hi, hi-lo)
	}
	if err := errors.Join(l.proto.Rounds.Compatible(sum.Rounds), l.proto.Transmissions.Compatible(sum.Transmissions)); err != nil {
		return fmt.Errorf("%w (%d, %d): %v", ErrBadUnit, k.Cell, k.Shard, err)
	}
	return nil
}

// Claim leases the lowest claimable unit: one whose lease ran out
// unreported, else the lowest never-claimed unit. A positive lease makes the
// claim expire after that long; lease 0 never expires. ok is false when
// nothing is claimable right now — every undone unit is leased and live.
func (l *Ledger) Claim(lease time.Duration) (Lease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u, reclaimed := -1, false
	if l.deadline != nil { // in-process-only ledgers never scan
		now := time.Now()
		for v := l.cursor; v < l.fresh; v++ { // every leased unit is below fresh
			if l.state[v] == unitLeased && !l.deadline[v].IsZero() && !now.Before(l.deadline[v]) {
				u, reclaimed = v, true
				break
			}
		}
	}
	if u < 0 {
		for l.fresh < len(l.state) && l.state[l.fresh] != unitPending {
			l.fresh++
		}
		if l.fresh == len(l.state) {
			return Lease{}, false
		}
		u = l.fresh
		l.fresh++
	}
	l.state[u] = unitLeased
	if lease > 0 {
		if l.deadline == nil {
			l.deadline = make([]time.Time, len(l.state))
		}
		l.deadline[u] = time.Now().Add(lease)
	} else if l.deadline != nil {
		l.deadline[u] = time.Time{}
	}
	c, s := u/l.shards, u%l.shards
	lo, hi := ShardRange(l.trials, s)
	return Lease{ShardKey: ShardKey{Cell: c, Shard: s}, TrialLo: lo, TrialHi: hi, Reclaimed: reclaimed}, true
}

// Report records the accumulator of unit k, leased or not. It must cover
// exactly the unit's trials with the ledger's stream configuration, or it
// is refused with an error wrapping ErrBadUnit and the ledger is untouched.
// Reporting a done unit is an acknowledged no-op (fresh is false), the
// idempotency a re-leased unit needs. The ledger keeps sum, which may become
// its cell's merge destination. A report that completes its cell (merged)
// merges it and delivers every cell the frontier reaches before returning.
func (l *Ledger) Report(k ShardKey, sum *TrialSummary) (fresh, merged bool, err error) {
	if err := l.check(k, sum); err != nil {
		return false, false, err
	}
	u := k.Cell*l.shards + k.Shard
	l.mu.Lock()
	if l.state[u] == unitDone {
		l.mu.Unlock()
		return false, false, nil
	}
	l.state[u] = unitDone
	l.accs[u] = sum
	l.undone--
	for l.cursor < len(l.state) && l.state[l.cursor] == unitDone {
		l.cursor++
	}
	l.remaining[k.Cell]--
	last := l.remaining[k.Cell] == 0
	l.mu.Unlock()
	if !last {
		return true, false, nil
	}
	// The cell's last reporter owns its final accumulators, so the
	// shard-order merge — the order that makes the summary independent of
	// which units finished first — runs outside the lock.
	accs := l.accs[k.Cell*l.shards : (k.Cell+1)*l.shards]
	dst := accs[0]
	for _, src := range accs[1:] {
		if err := dst.Merge(src); err != nil {
			return true, false, fmt.Errorf("engine: cell %d merge: %w", k.Cell, err)
		}
	}
	l.mu.Lock()
	l.sums[k.Cell] = dst
	clear(accs)
	l.mu.Unlock()
	l.deliver()
	return true, true, nil
}

// deliver hands merged cells to onCell in enumeration order. One goroutine
// at a time walks the frontier, calling out unlocked; a cell merged
// meanwhile is picked up by the same walk.
func (l *Ledger) deliver() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.delivering {
		return
	}
	l.delivering = true
	for l.next < len(l.sums) && l.sums[l.next] != nil {
		if l.onCell != nil {
			c, sum := l.next, l.sums[l.next]
			l.mu.Unlock()
			l.onCell(c, sum)
			l.mu.Lock()
		}
		l.next++
	}
	l.delivering = false
}

// Drain folds every unclaimed unit on a pool of cfg's workers, claiming
// without leases, and returns once nothing is left to claim and every claim
// is reported. cells are the grid's cells in ledger order; cell c's trial i
// is cells[c].Execute(ctx, i). onShard (may be nil) observes each freshly folded
// unit before it is reported, from worker goroutines, possibly
// concurrently, outside any ledger lock; it must consume the summary during
// the call, because the ledger may later merge into it.
//
// On a trial failure the lowest (cell, trial) error is returned. Cancelling
// ctx stops the pool within 64 rounds: claimed units are abandoned, nothing
// new is claimed, and Drain returns ctx's error (wrapped). Cells already
// delivered remain final.
func (l *Ledger) Drain(ctx context.Context, cells []Trial, cfg Config, onShard func(ShardState)) error {
	if len(cells) != len(l.sums) {
		return fmt.Errorf("engine: drain got %d cells for a ledger of %d", len(cells), len(l.sums))
	}
	l.mu.Lock()
	units := l.undone
	l.mu.Unlock()
	// Instrumentation is observe-only and recorded at unit granularity; the
	// gate is read once so a mid-run toggle cannot unbalance the pending
	// gauge.
	mOn := metrics.Enabled()
	if mOn {
		mUnitsPending.Add(int64(units))
	}
	var (
		failed   atomic.Bool
		reported atomic.Int64
		firstEr  trialError
		mergeEr  trialError
	)
	runPool(min(cfg.workers(), units), func() {
		clock := newWorkerClock(mOn)
		defer clock.drain()
		for !failed.Load() {
			u, ok := l.Claim(0)
			if !ok {
				return
			}
			acc, i, err := foldUnit(ctx, cells[u.Cell].resolved(), u.TrialLo, u.TrialHi, l.sc, &clock)
			if err != nil {
				if i >= 0 {
					// Global order key: all trials of cell c sort before any
					// trial of cell c+1.
					firstEr.record(u.Cell*l.trials+i, err)
					failed.Store(true)
				}
				return
			}
			if mOn {
				mCellTrials.With(cellLabel(u.Cell)).Add(int64(u.TrialHi - u.TrialLo))
				mUnitsPending.Add(-1)
				reported.Add(1)
			}
			if onShard != nil {
				onShard(ShardState{Cell: u.Cell, Shard: u.Shard, TrialLo: u.TrialLo, TrialHi: u.TrialHi, Summary: acc})
			}
			_, merged, err := l.Report(u.ShardKey, acc)
			if err != nil {
				mergeEr.record(u.Cell, err)
				failed.Store(true)
				return
			}
			if merged && mOn {
				mCellsCompleted.Inc()
			}
		}
	})
	if mOn {
		// Units abandoned by error or cancellation leave the queue with the
		// run; without this the pending gauge would leak on every failure.
		mUnitsPending.Add(reported.Load() - int64(units))
	}
	if err := firstEr.get(); err != nil {
		return fmt.Errorf("engine: cell %d trial %d: %w", firstEr.index/l.trials, firstEr.index%l.trials, err)
	}
	if err := mergeEr.get(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
