package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
)

// CtlFanout is one Watch fan-out measurement: events per second actually
// delivered to N concurrent watchers, with the loss count the stream
// reported in-band.
type CtlFanout struct {
	Watchers     int
	Published    int
	Delivered    int64 // events that reached a watcher
	Lost         int64 // events reported lost in-band (drops, ring overflow)
	Elapsed      time.Duration
	EventsPerSec float64 // delivered / elapsed
}

// CtlReplay measures the resume path: a watcher reads half a burst,
// disconnects, and re-attaches with WatchFrom(lastSeq+1) — the replayed
// half must arrive complete (zero lost) straight from the server ring.
type CtlReplay struct {
	Burst        int
	Live         int   // events read before the disconnect
	Replayed     int   // events re-delivered after the resume
	Lost         int64 // must be 0 while the burst fits the ring
	Elapsed      time.Duration
	EventsPerSec float64 // replayed / elapsed
}

// CtlResult is the control-plane micro-benchmark: request round-trip
// latency for a metadata call (Info) and a data call (Apps), Watch
// fan-out, and the replay-from-seq resume path. The fan-out keeps the
// V2 field name so recorded documents (bench/baseline.json) and the
// benchdiff gate read it unchanged.
type CtlResult struct {
	Requests int
	InfoRTT  time.Duration // mean round-trip of one ctl.info
	AppsRTT  time.Duration // mean round-trip of one ctl.apps (records + heads)

	V2     CtlFanout // batched fast frames through the replay ring
	Replay CtlReplay
}

// RunCtl measures the control plane over the in-process fabric: the
// same versioned protocol and server the TCP daemons use, minus kernel
// scheduling noise from real sockets — so the numbers isolate protocol
// cost (seal, encode, dispatch, reply correlation) and the Watch
// pushers.
func RunCtl(requests, watchers, events int) (CtlResult, error) {
	mw, err := deployment(200_000, 7)
	if err != nil {
		return CtlResult{}, err
	}
	defer mw.Close()

	srvEp, err := mw.Fabric.Attach("ctl-bench-server", "")
	if err != nil {
		return CtlResult{}, err
	}
	srv := mw.ServeControl(srvEp)
	defer srv.Close()
	cliEp, err := mw.Fabric.Attach("ctl-bench-client", "")
	if err != nil {
		return CtlResult{}, err
	}
	cli := ctl.NewClient(cliEp, "ctl-bench-server")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	res := CtlResult{Requests: requests}

	// Round-trip latency (wall clock; the virtual testbed clock does not
	// pace fabric dispatch).
	start := time.Now()
	for i := 0; i < requests; i++ {
		if _, err := cli.Info(ctx); err != nil {
			return res, fmt.Errorf("info #%d: %w", i, err)
		}
	}
	res.InfoRTT = time.Since(start) / time.Duration(requests)
	start = time.Now()
	for i := 0; i < requests; i++ {
		if _, err := cli.Apps(ctx); err != nil {
			return res, fmt.Errorf("apps #%d: %w", i, err)
		}
	}
	res.AppsRTT = time.Since(start) / time.Duration(requests)

	if res.V2, err = runFanout(ctx, mw, watchers, events); err != nil {
		return res, err
	}
	if res.Replay, err = runReplay(ctx, mw, events); err != nil {
		return res, err
	}
	return res, nil
}

// runFanout publishes one burst to N watchers and counts deliveries
// until every stream idles.
func runFanout(ctx context.Context, mw *core.Middleware, watchers, events int) (CtlFanout, error) {
	out := CtlFanout{Watchers: watchers, Published: events}

	type tally struct {
		delivered int64
		lost      uint64
	}
	var wg sync.WaitGroup
	tallies := make(chan tally, watchers)
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < watchers; i++ {
		ep, err := mw.Fabric.Attach(fmt.Sprintf("ctl-bench-watch-%d", i), "")
		if err != nil {
			return out, err
		}
		wcli := ctl.NewClient(ep, "ctl-bench-server")
		stream, err := wcli.Watch(wctx, "bench.*")
		if err != nil {
			return out, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tl tally
			idle := time.NewTimer(time.Second)
			defer idle.Stop()
			for {
				select {
				case ev, ok := <-stream:
					if !ok {
						tallies <- tl
						return
					}
					tl.delivered++
					tl.lost += ev.Lost
					if !idle.Stop() {
						<-idle.C
					}
					idle.Reset(300 * time.Millisecond)
				case <-idle.C:
					tallies <- tl
					return
				}
			}
		}()
	}

	start := time.Now()
	for i := 0; i < events; i++ {
		mw.Kernel.Publish(ctxkernel.Event{
			Topic: "bench.tick", At: time.Now(), Source: "bench",
			Attrs: map[string]string{"seq": fmt.Sprint(i)},
		})
	}
	wg.Wait()
	close(tallies)
	// The idle window ran after the last delivery on every watcher;
	// charge only one window against throughput, not one per watcher.
	out.Elapsed = time.Since(start) - 300*time.Millisecond
	if out.Elapsed <= 0 {
		out.Elapsed = time.Millisecond
	}
	for tl := range tallies {
		out.Delivered += tl.delivered
		out.Lost += int64(tl.lost)
	}
	out.EventsPerSec = float64(out.Delivered) / out.Elapsed.Seconds()
	return out, nil
}

// runReplay is the resume scenario: read half the burst live, tear the
// watch down mid-stream, and resume with WatchFrom(lastSeq+1). The
// replayed half comes out of the server ring, so as long as the burst
// fits the ring the resume must be loss-free and gap-free.
func runReplay(ctx context.Context, mw *core.Middleware, burst int) (CtlReplay, error) {
	out := CtlReplay{Burst: burst}
	ep, err := mw.Fabric.Attach("ctl-bench-replay", "")
	if err != nil {
		return out, err
	}
	cli := ctl.NewClient(ep, "ctl-bench-server")

	liveCtx, liveCancel := context.WithCancel(ctx)
	stream, err := cli.Watch(liveCtx, "replay.*")
	if err != nil {
		liveCancel()
		return out, err
	}
	for i := 0; i < burst; i++ {
		mw.Kernel.Publish(ctxkernel.Event{
			Topic: "replay.tick", At: time.Now(), Source: "bench",
			Attrs: map[string]string{"seq": fmt.Sprint(i)},
		})
	}
	var lastSeq uint64
	deadline := time.After(time.Minute)
	for out.Live < burst/2 {
		select {
		case ev, ok := <-stream:
			if !ok {
				liveCancel()
				return out, fmt.Errorf("replay: live stream closed after %d events", out.Live)
			}
			out.Live++
			out.Lost += int64(ev.Lost)
			lastSeq = ev.Seq
		case <-deadline:
			liveCancel()
			return out, fmt.Errorf("replay: live phase stalled at %d/%d events", out.Live, burst/2)
		}
	}
	liveCancel() // disconnect mid-burst; the rest stays in the ring

	start := time.Now()
	resumed, err := cli.WatchFrom(ctx, "replay.*", lastSeq+1)
	if err != nil {
		return out, fmt.Errorf("replay: resume from seq %d: %w", lastSeq+1, err)
	}
	want := burst - out.Live
	for out.Replayed < want {
		select {
		case ev, ok := <-resumed:
			if !ok {
				return out, fmt.Errorf("replay: resumed stream closed after %d events", out.Replayed)
			}
			out.Replayed++
			out.Lost += int64(ev.Lost)
		case <-deadline:
			return out, fmt.Errorf("replay: resume stalled at %d/%d events", out.Replayed, want)
		}
	}
	out.Elapsed = time.Since(start)
	if out.Elapsed <= 0 {
		out.Elapsed = time.Millisecond
	}
	out.EventsPerSec = float64(out.Replayed) / out.Elapsed.Seconds()
	return out, nil
}
