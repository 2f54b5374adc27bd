package ctl

import (
	"fmt"
	"testing"
	"time"

	"mdagent/internal/ctxkernel"
)

// TestHubOverflowLostExact pins the ring's loss arithmetic, which the
// in-band Lost accounting and the drop counter both ride on: overflow
// loss is exactly the number of events that aged out before the cursor
// reached them — no more, no less, and only once.
func TestHubOverflowLostExact(t *testing.T) {
	kernel := ctxkernel.NewKernel()
	hub := newWatchHub(kernel, 16)
	defer hub.close()

	w := &watcher{pattern: "*", cursor: 1, kick: make(chan struct{}, 1), done: make(chan struct{})}
	hub.mu.Lock()
	hub.watchers[w] = struct{}{}
	hub.mu.Unlock()

	const published = 100
	for i := 0; i < published; i++ {
		kernel.Publish(ctxkernel.Event{Topic: "ring.tick", At: time.Unix(0, int64(i)), Source: "hub"})
	}

	events, lost := hub.collect(w, 512)
	if lost != published-16 {
		t.Fatalf("lost = %d, want exactly %d (ring 16, published %d, cursor 1)", lost, published-16, published)
	}
	if len(events) != 16 {
		t.Fatalf("collected %d events, want the full ring of 16", len(events))
	}
	// The survivors are the newest 16, in order, with their original
	// sequence numbers.
	for i, se := range events {
		want := uint64(published - 16 + i + 1)
		if se.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, se.Seq, want)
		}
	}
	// The loss was consumed: a second collect starts clean.
	if events, lost = hub.collect(w, 512); len(events) != 0 || lost != 0 {
		t.Fatalf("second collect = %d events, lost %d; want 0, 0", len(events), lost)
	}

	// Partial batches drain without inventing loss, and the pattern
	// filter does not distort the count: half the new events match.
	for i := 0; i < 8; i++ {
		topic := "ring.tick"
		if i%2 == 1 {
			topic = "other.tick"
		}
		kernel.Publish(ctxkernel.Event{Topic: topic, At: time.Unix(1, 0), Source: "hub"})
	}
	w2 := &watcher{pattern: "ring.*", cursor: published + 1, kick: make(chan struct{}, 1), done: make(chan struct{})}
	if events, lost = hub.collect(w2, 512); len(events) != 4 || lost != 0 {
		t.Fatalf("filtered collect = %d events, lost %d; want 4, 0", len(events), lost)
	}
}

// TestHubSeqStampsMonotonic checks the stamping invariant replay relies
// on: sequence numbers are assigned in publish order starting at 1 and
// never reused, even as the ring wraps many times.
func TestHubSeqStampsMonotonic(t *testing.T) {
	kernel := ctxkernel.NewKernel()
	hub := newWatchHub(kernel, 8)
	defer hub.close()
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			kernel.Publish(ctxkernel.Event{Topic: "seq.tick", Source: fmt.Sprint(round)})
		}
		w := &watcher{pattern: "*", cursor: uint64(round*8 + 1), kick: make(chan struct{}, 1), done: make(chan struct{})}
		events, lost := hub.collect(w, 512)
		if lost != 0 || len(events) != 8 {
			t.Fatalf("round %d: %d events, lost %d", round, len(events), lost)
		}
		for i, se := range events {
			if want := uint64(round*8 + i + 1); se.Seq != want {
				t.Fatalf("round %d event %d: seq %d, want %d", round, i, se.Seq, want)
			}
		}
	}
}
