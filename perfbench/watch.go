package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdagent/internal/ctl"
)

// watcher drains one Client.Watch stream, timing each delivery as
// receive time minus the event's own At (both read from this host's
// clock), and counting deliveries and in-band losses for the
// conservation check.
type watcher struct {
	mu        sync.Mutex
	lat       timings
	delivered int
	lost      uint64
	arrived   chan struct{}
	done      chan struct{}
}

// startWatch subscribes pattern on cli; the stream ends with ctx.
func startWatch(ctx context.Context, cli *ctl.Client, pattern string) (*watcher, error) {
	ch, err := cli.Watch(ctx, pattern)
	if err != nil {
		return nil, fmt.Errorf("watch %s: %w", pattern, err)
	}
	w := &watcher{arrived: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ev := range ch {
			now := time.Now()
			w.mu.Lock()
			w.lat.add(ev.Event.At, now)
			w.delivered++
			w.lost += ev.Lost
			w.mu.Unlock()
			select {
			case w.arrived <- struct{}{}:
			default:
			}
		}
	}()
	return w, nil
}

// resetLatency drops the latencies seen so far (warm-up); the counts
// stay, since conservation covers the whole stream.
func (w *watcher) resetLatency() {
	w.mu.Lock()
	w.lat = nil
	w.mu.Unlock()
}

func (w *watcher) latencies() timings {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append(timings(nil), w.lat...)
}

func (w *watcher) counts() (delivered int, lost uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.delivered, w.lost
}

// conserved waits until delivered + lost reaches published and reports
// whether it equals it exactly.
func (w *watcher) conserved(published int, timeout time.Duration) (bool, string) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		d, l := w.counts()
		if d+int(l) >= published {
			return d+int(l) == published, fmt.Sprintf("delivered %d + lost %d, published %d", d, l, published)
		}
		select {
		case <-w.arrived:
		case <-deadline.C:
			return false, fmt.Sprintf("delivered %d + lost %d, published %d (timed out)", d, l, published)
		}
	}
}

// mergeLatencies pools several watchers' delivery latencies.
func mergeLatencies(ws ...*watcher) timings {
	var all timings
	for _, w := range ws {
		all = append(all, w.latencies()...)
	}
	return all
}
