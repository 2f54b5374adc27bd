package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// What every workload shares: set-ups measured in rounds, phases that
// run until they hold enough quiet samples, and the gate that turns
// timings into the end-to-end metrics.

const (
	setupRounds   = 5 // fresh set-ups an untraced run measures on
	maxWindowMult = 2 // a window may stretch this far to fill its tails
)

// pooled measures on n fresh set-ups in turn, tearing each down before
// the next, and returns the set-up time in seconds. Pooling the samples
// of several set-ups keeps one set-up's luck (memory layout, timer
// phase) from deciding a run, and gives set-up time several samples.
func pooled[T interface{ close() }](ctx context.Context, e env, n int, up func() (T, error), measure func(T) error) (float64, error) {
	var setups timings
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var rig T
		err := withRetry(ctx, func() (err error) {
			rig, err = up()
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups.add(t0, time.Now())
		err = measure(rig)
		rig.close()
		if err != nil {
			return 0, err
		}
	}
	return setupSeconds(e, setups), nil
}

// setupSeconds is the median of the quieter half (at least) of the
// set-ups, in seconds.
func setupSeconds(e env, setups timings) float64 {
	q, _ := setups.quiet(e.steal, (len(setups)+1)/2)
	return q.median() / 1000
}

// enough reports whether a phase has need quiet operations; the check
// runs every 32 operations to keep it off the hot loop.
func enough(e env, t timings, need int) bool {
	switch {
	case len(t) < need:
		return false
	case e.short:
		return true
	case len(t)%32 != 0:
		return false
	}
	return t.quietCount(e.steal) >= need
}

// rounds splits a run: an untraced run measures on setupRounds fresh
// set-ups, each for its share of the window and of the samples need
// asks for; a traced run measures on one set-up, untraced for half the
// window, then traced for the other half. Short mode needs one sample.
func (e env) rounds(need int) (n int, window time.Duration, perRound int) {
	if e.short {
		need = 1
	}
	if e.traced {
		return 1, e.seconds / 2, 1
	}
	return setupRounds, e.seconds / setupRounds, (need + setupRounds - 1) / setupRounds
}

// gate fills the gated latencies from the operations that ran in quiet
// slots: op_p50_ms, op_p90_ms and watch_p50_ms. A p90 short of ten
// samples beyond it fails an untraced run (short mode reports it
// anyway; a traced run prints no end-to-end metric). The
// detail line gets the quiet watch p90, the unfiltered op p50, the share
// of ops kept, and the op's p99 as p99Name when ten samples lie beyond
// it.
func gate(o *outcome, e env, op, watch timings, p99Name string) error {
	need := tailMin(0.9)
	qop, opLimit := op.quiet(e.steal, need)
	qwatch, watchLimit := watch.quiet(e.steal, need)
	o.e2e["op_p50_ms"] = qop.median()
	o.e2e["watch_p50_ms"] = qwatch.median()
	o.e2e["op_p90_ms"] = qop.quantile(0.9)
	if !e.short && !e.traced {
		p90, err := qop.tail("op_p90_ms", 0.9)
		if err != nil {
			return err
		}
		o.e2e["op_p90_ms"] = p90
	}
	if v, err := qwatch.tail("watch_p90_ms", 0.9); err == nil {
		o.detail["watch_p90_ms"] = v
	}
	all := op.all()
	o.detail["quiet_steal_limit"] = max(opLimit, watchLimit)
	o.detail["op_p50_unfiltered_ms"] = all.median()
	if len(op) > 0 {
		o.detail["op_quiet_share"] = float64(len(qop)) / float64(len(op))
	}
	if p99Name != "" {
		if v, err := all.tail(p99Name, 0.99); err == nil {
			o.detail[p99Name] = v
		}
	}
	return nil
}

// seededName is a short lowercase name drawn from rng.
func seededName(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, 6)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
