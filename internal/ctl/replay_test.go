package ctl_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/obs"
	"mdagent/internal/transport"
)

// replayRig is a bare control-plane server over the in-process fabric,
// small enough for the replay tests to own every published event.
type replayRig struct {
	fabric *transport.LocalFabric
	kernel *ctxkernel.Kernel
	srv    *ctl.Server
}

func newReplayRig(t *testing.T, ringSize int) *replayRig {
	t.Helper()
	fabric := transport.NewLocalFabric(nil)
	srvEp, err := fabric.Attach("replay-srv", "")
	if err != nil {
		t.Fatal(err)
	}
	kernel := ctxkernel.NewKernel()
	srv := ctl.NewServer(ctl.Backend{Kernel: kernel})
	srv.RingSize = ringSize
	srv.Serve(srvEp)
	t.Cleanup(srv.Close)
	return &replayRig{fabric: fabric, kernel: kernel, srv: srv}
}

func (r *replayRig) client(t *testing.T, name string) *ctl.Client {
	t.Helper()
	ep, err := r.fabric.Attach(name, "")
	if err != nil {
		t.Fatal(err)
	}
	return ctl.NewClient(ep, "replay-srv")
}

func (r *replayRig) publish(n, from int) {
	for i := 0; i < n; i++ {
		r.kernel.Publish(ctxkernel.Event{
			Topic: "replay.tick", At: time.Now(), Source: "rig",
			Attrs: map[string]string{"i": fmt.Sprint(from + i)},
		})
	}
}

// recv drains one event or fails the test.
func recv(t *testing.T, stream <-chan ctl.WatchEvent) ctl.WatchEvent {
	t.Helper()
	select {
	case ev, ok := <-stream:
		if !ok {
			t.Fatal("stream closed")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for event")
	}
	panic("unreachable")
}

// TestWatchReplayAfterDisconnect is the operator story the replay mode
// exists for: a watcher reads half a burst, disconnects, and resumes
// with WatchFrom(lastSeq+1) — every remaining event is re-delivered
// from the ring with zero Lost, in order, no duplicates.
func TestWatchReplayAfterDisconnect(t *testing.T) {
	rig := newReplayRig(t, 8192)
	cli := rig.client(t, "replay-cli")

	ctx1, cancel1 := context.WithCancel(context.Background())
	stream, err := cli.Watch(ctx1, "replay.*")
	if err != nil {
		t.Fatal(err)
	}
	const burst = 2048
	rig.publish(burst, 0)

	var lastSeq uint64
	seen := 0
	for seen < burst/2 {
		ev := recv(t, stream)
		if ev.Lost != 0 {
			t.Fatalf("lost %d events before seq %d on an in-ring burst", ev.Lost, ev.Seq)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		seen++
	}
	cancel1() // disconnect mid-burst; the rest of the burst is unread

	// Resume from the next sequence number on a fresh watch.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	resumed, err := cli.WatchFrom(ctx2, "replay.*", lastSeq+1)
	if err != nil {
		t.Fatal(err)
	}
	for seen < burst {
		ev := recv(t, resumed)
		if ev.Lost != 0 {
			t.Fatalf("replay lost %d events before seq %d", ev.Lost, ev.Seq)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("replay skipped or repeated: got seq %d after %d", ev.Seq, lastSeq)
		}
		if want := fmt.Sprint(seen); ev.Event.Attr("i") != want {
			t.Fatalf("replayed event %d carries i=%q, want %q", seen, ev.Event.Attr("i"), want)
		}
		lastSeq = ev.Seq
		seen++
	}
	// The stream is live now: one more publish arrives on the same watch.
	rig.publish(1, burst)
	if ev := recv(t, resumed); ev.Event.Attr("i") != fmt.Sprint(burst) {
		t.Fatalf("live tail after replay delivered i=%q", ev.Event.Attr("i"))
	}
}

// TestWatchReplayGap asks for a seq the ring no longer retains: the
// subscribe must fail with the typed ErrReplayGap (surviving the wire
// as errors.Is), and a live-from-now watch on the same client must
// still work — the documented fallback.
func TestWatchReplayGap(t *testing.T) {
	rig := newReplayRig(t, 16)
	cli := rig.client(t, "gap-cli")

	// Prime the hub (the first watch creates it), then age out seq 1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := cli.Watch(ctx, "prime.*"); err != nil {
		t.Fatal(err)
	}
	rig.publish(100, 0)

	_, err := cli.WatchFrom(ctx, "replay.*", 1)
	if !errors.Is(err, ctl.ErrReplayGap) {
		t.Fatalf("replay of aged-out seq 1: err = %v, want ErrReplayGap", err)
	}
	// A seq ahead of the stream is a gap too, not a silent wait.
	if _, err := cli.WatchFrom(ctx, "replay.*", 1_000_000); !errors.Is(err, ctl.ErrReplayGap) {
		t.Fatalf("replay of future seq: err = %v, want ErrReplayGap", err)
	}

	// Fallback: live from now.
	live, err := cli.WatchFrom(ctx, "replay.*", 0)
	if err != nil {
		t.Fatalf("live fallback failed: %v", err)
	}
	rig.publish(1, 100)
	if ev := recv(t, live); ev.Event.Attr("i") != "100" {
		t.Fatalf("live fallback delivered i=%q, want 100", ev.Event.Attr("i"))
	}
}

// TestWatchRingOverflowConservation overflows a tiny ring end-to-end
// and checks the loss books: every published event is delivered or
// counted in Lost, the loss is real (the ring was 64 deep under a 3000
// event burst), and the server-side drop counter accounts for every
// in-band loss the ring caused.
func TestWatchRingOverflowConservation(t *testing.T) {
	drops := obs.Default.Counter("mdagent_ctl_watch_dropped_total")
	before := drops.Value()

	rig := newReplayRig(t, 64)
	cli := rig.client(t, "overflow-cli")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := cli.Watch(ctx, "*")
	if err != nil {
		t.Fatal(err)
	}
	const published = 3000
	rig.publish(published, 0)

	var delivered, lost int64
	idle := time.NewTimer(2 * time.Second)
	defer idle.Stop()
drain:
	for {
		select {
		case ev := <-stream:
			delivered++
			lost += int64(ev.Lost)
			if delivered+lost >= published {
				break drain
			}
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(2 * time.Second)
		case <-idle.C:
			break drain
		}
	}
	if delivered+lost != published {
		t.Fatalf("conservation violated: delivered %d + lost %d != published %d", delivered, lost, published)
	}
	if lost == 0 {
		t.Fatalf("a %d-event burst through a 64-slot ring lost nothing: the test lost its teeth", published)
	}
	if metric := drops.Value() - before; metric != lost {
		t.Fatalf("drop counter moved %d, in-band lost %d — ring drops must hit /metrics exactly", metric, lost)
	}
	t.Logf("published %d, delivered %d, lost %d", published, delivered, lost)
}
