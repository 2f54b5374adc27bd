package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// durable-write offers quorum-concern snapshot puts at a fixed rate,
// well below the ~470 puts/s one closed-loop client reaches, from two
// senders (so at most two puts are in flight) over one connection to the
// writing center of a three-center federation with fsync'd stores.
const (
	putRate       = 80 // offered puts per second
	putSenders    = 2
	fleetSize     = 128 // seeded apps the quorum puts spread over
	bigPutShare   = 8   // one put in this many is a >= 64 KB blob-path frame
	durableWarmup = 40
)

// dwRig is one durable-write set-up.
type dwRig struct {
	dp       *deployment
	node     *transport.TCPNode
	spaces   []string
	addrs    []string
	ctl      *ctl.Client
	snap     *cluster.SnapshotClient
	watchers []*watcher
	cancel   context.CancelFunc
	// durable counts quorum puts acked since the watchers subscribed:
	// each publishes exactly one cluster.durable event at the writer.
	durable int
}

func (r *dwRig) close() {
	if r.cancel != nil {
		r.cancel()
	}
	for _, w := range r.watchers {
		<-w.done
	}
	if r.node != nil {
		r.node.Close()
	}
	r.dp.close()
}

func dwUp(ctx context.Context, e env, rng *rand.Rand) (*dwRig, error) {
	dp, err := newDeployment(e.runRoot)
	if err != nil {
		return nil, err
	}
	r := &dwRig{dp: dp}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	if r.addrs, err = freeAddrs(3); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		r.spaces = append(r.spaces, "s"+fmt.Sprint(i)+"-"+seededName(rng))
	}
	var ds []*daemon
	for i, sp := range r.spaces {
		args := []string{"-listen", r.addrs[i], "-space", sp, "-write-concern", "quorum",
			"-store", filepath.Join(dp.dir, sp), "-store-sync", "interval"}
		for j, peer := range r.spaces {
			if j != i {
				args = append(args, "-fed-peer", peer+"="+r.addrs[j])
			}
		}
		d, err := dp.start(filepath.Join(e.binDir, "mdregistry"), "mdregistry-"+sp, e.gomaxprocs, args...)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		if _, err := d.waitLine("serving registry@", 15*time.Second); err != nil {
			return nil, err
		}
	}
	if r.node, err = transport.ListenTCP("perfbench", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	writer := cluster.CenterEndpointName(r.spaces[0])
	r.node.AddPeer(writer, r.addrs[0])
	r.ctl = ctl.NewClient(r.node.Endpoint(), writer)
	r.snap = cluster.NewSnapshotClient(r.node.Endpoint(), writer)
	r.snap.SetWriteConcern(cluster.WriteQuorum)
	wctx, cancel := context.WithCancel(ctx)
	r.cancel = cancel
	for i := 0; i < 2; i++ {
		w, err := startWatch(wctx, r.ctl, "cluster.durable")
		if err != nil {
			return nil, err
		}
		r.watchers = append(r.watchers, w)
	}
	// Warm-up doubles as the convergence check: quorum puts succeed only
	// once the writer reaches its peers.
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < durableWarmup; {
		p := makePut(rng, "warm-"+fmt.Sprint(i%8), 1024)
		_, err := r.snap.PutSnapshot(ctx, p.put)
		if err == nil {
			r.durable++
			i++
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("warm-up put never became durable: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, w := range r.watchers {
		w.resetLatency()
	}
	ok = true
	return r, nil
}

// seededPut is one prepared put and what a correct peer must return.
type seededPut struct {
	put   state.SnapshotPut
	frame [sha256.Size]byte
}

// makePut builds a full-frame put of app carrying size seeded bytes.
func makePut(rng *rand.Rand, appName string, size int) seededPut {
	w := app.Wrap{
		App: appName, FromHost: "perfbench",
		Components: map[string][]byte{"frame": randBytes(rng, size)},
		Kinds:      map[string]app.ComponentKind{"frame": app.KindData},
	}
	at := time.Now()
	frame, err := state.EncodeSnapshot(app.TaggedSnapshot{Tag: "perfbench", At: at, Wrap: w})
	if err != nil {
		panic(err) // a wrap built here always encodes
	}
	return seededPut{
		put: state.SnapshotPut{App: appName, Host: "perfbench", At: at, Frame: frame,
			NewDigest: state.WrapDigest(w)},
		frame: sha256.Sum256(frame),
	}
}

// slot is one scheduled put: when it is due and what it writes.
type slot struct {
	app  string
	size int
}

// schedule draws n slots from rng. Slot k goes to sender k%putSenders,
// and each sender owns its own half of the fleet, so two puts of one
// app are never in flight together and "last acked" is well defined.
func schedule(rng *rand.Rand, fleet []string, n int) []slot {
	out := make([]slot, n)
	for k := range out {
		idx := rng.Intn(len(fleet)/putSenders)*putSenders + k%putSenders
		size := 768 + rng.Intn(513)
		if rng.Intn(bigPutShare) == 0 {
			size = 64<<10 + rng.Intn(32<<10)
		}
		out[k] = slot{app: fleet[idx], size: size}
	}
	return out
}

// putLedger records, per app, the last put the writer acked.
type putLedger struct {
	mu   sync.Mutex
	last map[string]seededPut
}

// dwPhase offers puts at putRate for window, stretched until it holds
// need quiet samples, up to maxWindowMult windows. It returns the puts'
// timings, each from its scheduled send, and how late each send left.
func dwPhase(ctx context.Context, e env, r *dwRig, o *outcome, rng *rand.Rand, fleet []string, window time.Duration, need int, ledger *putLedger, concern cluster.WriteConcern) (lat timings, late samples, err error) {
	maxN := int(float64(putRate) * (maxWindowMult * window).Seconds())
	slots := schedule(rng, fleet, maxN)
	seeds := make([]int64, putSenders)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	interval := time.Second / putRate
	start := time.Now().Add(10 * time.Millisecond)
	var mu sync.Mutex
	stop := func(k int) bool {
		if ctx.Err() != nil || k >= maxN {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(k)*interval >= window && enough(e, lat, need)
	}
	var wg sync.WaitGroup
	for s := 0; s < putSenders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seeds[s]))
			for k := s; !stop(k); k += putSenders {
				p := makePut(prng, slots[k].app, slots[k].size)
				p.put.Concern = string(concern)
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				_, perr := r.snap.PutSnapshot(ctx, p.put)
				done := time.Now()
				mu.Lock()
				o.attempted++
				if perr != nil {
					o.fail("put %s (%d bytes, %s): %v", p.put.App, slots[k].size, concern, perr)
				} else {
					lat.add(due, done)
					late = append(late, ms(sent.Sub(due)))
					if ledger != nil {
						ledger.mu.Lock()
						ledger.last[p.put.App] = p
						ledger.mu.Unlock()
					}
					if concern == cluster.WriteQuorum {
						r.durable++
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return lat, late, ctx.Err()
}

// verifyReadback checks that every app's last quorum-acked put reads back
// from a peer center (not the writer) with a matching state digest and
// frame. A put no peer holds counts as failed.
func verifyReadback(ctx context.Context, peers []*cluster.SnapshotClient, ledger *putLedger, o *outcome) error {
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	for appName, want := range ledger.last {
		held := false
		for _, p := range peers {
			rec, found, err := p.LatestSnapshot(ctx, appName)
			if err != nil {
				return fmt.Errorf("read back %s: %w", appName, err)
			}
			if found && len(rec.Deltas) == 0 && rec.StateDigest == want.put.NewDigest && sha256.Sum256(rec.Frame) == want.frame {
				held = true
				break
			}
		}
		o.check(held, "quorum-acked put of %s not held by any peer center", appName)
	}
	return nil
}

func runDurableWrite(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome("loopback-tcp")
	o.procs["mdregistry x3"] = e.gomaxprocs
	rng := rand.New(rand.NewSource(e.seed))
	var lat, watchLat timings
	var late, rss samples
	n, window, need := e.rounds(tailMin(0.9))
	if e.traced {
		// Three phases share the window: untraced, traced, async.
		window = e.seconds / 3
	}
	setup, err := pooled(ctx, e, n, func() (*dwRig, error) { return dwUp(ctx, e, rng) }, func(r *dwRig) error {
		fleet := make([]string, fleetSize)
		for i := range fleet {
			fleet[i] = "app-" + seededName(rng)
		}
		ledger := &putLedger{last: map[string]seededPut{}}
		rp := probeRSSAt(window, r.dp.peakRSSMB)
		l, lt, err := dwPhase(ctx, e, r, o, rng, fleet, window, need, ledger, cluster.WriteQuorum)
		peak := rp.value()
		if err != nil {
			return err
		}
		if e.traced {
			if err := dwTraced(ctx, e, o, rng, r, fleet, ledger, l.all(), window); err != nil {
				return err
			}
		}
		if err := dwChecks(ctx, r, o, ledger); err != nil {
			return err
		}
		lat = append(lat, l...)
		late = append(late, lt...)
		watchLat = append(watchLat, mergeLatencies(r.watchers...)...)
		rss = append(rss, peak)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.detail["puts"] = len(lat)
	if v, err := late.tail("gen_late_p99_ms", 0.99); err == nil {
		o.detail["gen_late_p99_ms"] = v
	}
	o.detail["offered_puts_per_s"] = putRate
	o.detail["watch_events"] = len(watchLat)
	o.e2e["setup_s"] = setup
	o.e2e["peak_rss_mb"] = rss.median()
	return o, gate(o, e, lat, watchLat, "put_p99_ms")
}

// dwTraced runs the traced quorum phase and the async comparison phase
// on r after the untraced one, and fills the durable-write layers.
func dwTraced(ctx context.Context, e env, o *outcome, rng *rand.Rand, r *dwRig, fleet []string, ledger *putLedger, untraced samples, window time.Duration) error {
	before, err := scrape(ctx, r.ctl)
	if err != nil {
		return err
	}
	tracedT, late, err := dwPhase(ctx, e, r, o, rng, fleet, window, 1, ledger, cluster.WriteQuorum)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, r.ctl)
	if err != nil {
		return err
	}
	// The async puts write a fleet of their own, so they never replace a
	// quorum-acked record the read-back check expects.
	asyncFleet := make([]string, len(fleet))
	for i := range asyncFleet {
		asyncFleet[i] = "async-" + seededName(rng)
	}
	asyncT, _, err := dwPhase(ctx, e, r, o, rng, asyncFleet, window, 1, nil, cluster.WriteAsync)
	if err != nil {
		return err
	}
	traced, async := tracedT.all(), asyncT.all()
	l := o.layer
	layerCounters(l, after, before)
	if err := commonProbes(ctx, o, rng, r.ctl, songBytes); err != nil {
		return err
	}
	l["fed.async_put_p50_ms"] = async.median()
	l["gen.late_p90_ms"] = late.quantile(0.9)
	l["trace.op_p50_ms"] = traced.median()
	l["trace.overhead_ms"] = traced.median() - untraced.median()
	// From outside, a put's blocking steps are the wire round trip, the
	// writer's store commit and the federation ack wait; what their
	// medians leave of the put median is unattributed.
	l["trace.unattributed_ms"] = traced.median() - l["transport.rtt_us"]/1000 -
		l["store.put_wait_p50_us"]/1000 - l["fed.ack_wait_p50_ms"]
	zeroLayers(l)
	return nil
}

// dwChecks runs the after-run checks: peer read-back of every app's last
// acked put, and watch conservation at the writer.
func dwChecks(ctx context.Context, r *dwRig, o *outcome, ledger *putLedger) error {
	var peers []*cluster.SnapshotClient
	for i := 1; i < len(r.spaces); i++ {
		name := cluster.CenterEndpointName(r.spaces[i])
		r.node.AddPeer(name, r.addrs[i])
		peers = append(peers, cluster.NewSnapshotClient(r.node.Endpoint(), name))
	}
	if err := verifyReadback(ctx, peers, ledger, o); err != nil {
		return err
	}
	for i, w := range r.watchers {
		okc, desc := w.conserved(r.durable, 5*time.Second)
		o.check(okc, "watch %d conservation on cluster.durable: %s", i, desc)
	}
	return nil
}
