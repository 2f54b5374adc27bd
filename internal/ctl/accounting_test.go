package ctl_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/obs"
	"mdagent/internal/transport"
)

// acctRun drives one bursty-publisher/slow-watcher run and returns the
// books: events published, delivered, and reported lost in-band.
type acctRun struct {
	published *atomic.Int64
	delivered int64
	lost      int64
	lastSeq   uint64
}

// runBurstWatch publishes a multi-goroutine burst at a deliberately
// slow watcher on a server whose replay ring holds ringSize events
// (zero takes the server default) and drains until the stream idles,
// then (when balance demands it) publishes flush events one at a time —
// drops are reported in-band on the NEXT delivered event, so trailing
// losses need a delivery to ride on — until delivered+lost == published
// or the deadline passes.
func runBurstWatch(t *testing.T, ringSize int) acctRun {
	t.Helper()
	fabric := transport.NewLocalFabric(nil)
	srvEp, err := fabric.Attach("acct-srv", "")
	if err != nil {
		t.Fatal(err)
	}
	kernel := ctxkernel.NewKernel()
	srv := ctl.NewServer(ctl.Backend{Kernel: kernel})
	srv.RingSize = ringSize
	srv.Serve(srvEp)
	defer srv.Close()
	cliEp, err := fabric.Attach("acct-cli", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := ctl.NewClient(cliEp, "acct-srv")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := cli.Watch(ctx, "burst.*")
	if err != nil {
		t.Fatal(err)
	}

	// Bursty publishers: enough concurrent volume to overflow a small
	// replay ring many times over.
	const publishers = 8
	const perPublisher = 500
	run := acctRun{published: &atomic.Int64{}}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				kernel.Publish(ctxkernel.Event{
					Topic: "burst.tick", At: time.Now(), Source: "acct",
					Attrs: map[string]string{"pub": fmt.Sprint(p), "seq": fmt.Sprint(i)},
				})
				run.published.Add(1)
			}
		}(p)
	}
	burstDone := make(chan struct{})
	go func() { wg.Wait(); close(burstDone) }()

	// Slow watcher during the burst: sleep per delivery so drops pile up.
	drainOne := func(timeout time.Duration) bool {
		select {
		case ev, ok := <-stream:
			if !ok {
				t.Fatal("stream closed unexpectedly")
			}
			run.delivered++
			run.lost += int64(ev.Lost)
			if ev.Seq <= run.lastSeq {
				t.Fatalf("seq went backwards: %d after %d", ev.Seq, run.lastSeq)
			}
			run.lastSeq = ev.Seq
			return true
		case <-time.After(timeout):
			return false
		}
	}
	for {
		select {
		case <-burstDone:
		default:
			if drainOne(10 * time.Millisecond) {
				time.Sleep(500 * time.Microsecond)
			}
			continue
		}
		break
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		for drainOne(time.Millisecond) {
		}
		if run.delivered+run.lost == run.published.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never balanced: delivered %d + lost %d != published %d",
				run.delivered, run.lost, run.published.Load())
		}
		kernel.Publish(ctxkernel.Event{Topic: "burst.flush", At: time.Now(), Source: "acct"})
		run.published.Add(1)
		time.Sleep(2 * time.Millisecond)
	}

	if run.delivered+run.lost != run.published.Load() {
		t.Fatalf("conservation violated: delivered %d + lost %d != published %d",
			run.delivered, run.lost, run.published.Load())
	}
	return run
}

// TestWatchDropAccountingConservation is the conservation law of the
// Watch stream's in-band drop accounting: eight concurrent publishers
// overflow a 64-slot replay ring under a deliberately slow watcher, and
// every published event is either delivered or counted in some
// delivered event's Lost (runBurstWatch asserts delivered + lost ==
// published) — exactly, with no double-counting across the
// server-side ring-overflow path and the client-side sink drop path.
// The server-side share of those drops must also land on the
// mdagent_ctl_watch_dropped_total counter (the /metrics surface), which
// can never exceed the in-band total — the in-band figure additionally
// counts client-sink drops the server cannot see. Run under -race, the
// test also exercises the publisher/pusher/sink interleavings the
// accounting must survive.
func TestWatchDropAccountingConservation(t *testing.T) {
	drops := obs.Default.Counter("mdagent_ctl_watch_dropped_total")
	before := drops.Value()
	run := runBurstWatch(t, 64)
	if run.lost == 0 {
		t.Fatalf("burst never overflowed the 64-slot ring (delivered %d, published %d): the test lost its teeth",
			run.delivered, run.published.Load())
	}
	metric := drops.Value() - before
	if metric <= 0 {
		t.Fatalf("mdagent_ctl_watch_dropped_total did not move (in-band lost %d)", run.lost)
	}
	if metric > run.lost {
		t.Fatalf("metric counted %d drops but only %d were reported in-band", metric, run.lost)
	}
	t.Logf("published %d, delivered %d, lost %d (metric %d)",
		run.published.Load(), run.delivered, run.lost, metric)
}

// TestWatchConservationV2 runs the identical burst through the default
// replay ring, which is deeper than the whole burst, so the same slow
// watcher that overflowed the 64-slot ring must now see every single
// event — zero Lost, delivered == published, strictly increasing
// sequence numbers, and no movement on the drop counter.
func TestWatchConservationV2(t *testing.T) {
	drops := obs.Default.Counter("mdagent_ctl_watch_dropped_total")
	before := drops.Value()
	run := runBurstWatch(t, 0)
	if run.lost != 0 {
		t.Fatalf("stream lost %d events (delivered %d of %d): the ring should have absorbed the burst",
			run.lost, run.delivered, run.published.Load())
	}
	if run.delivered != run.published.Load() {
		t.Fatalf("delivered %d != published %d", run.delivered, run.published.Load())
	}
	if run.lastSeq == 0 {
		t.Fatal("stream delivered no sequence numbers")
	}
	if metric := drops.Value() - before; metric != 0 {
		t.Fatalf("drop counter moved by %d on a lossless run", metric)
	}
	t.Logf("published %d, delivered %d, highest seq %d",
		run.published.Load(), run.delivered, run.lastSeq)
}
