package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mdagent"
	"mdagent/internal/app"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/demoapps"
	"mdagent/internal/obs"
)

// crash-failover runs repeated trials, each on a fresh in-process
// three-space federation (one host per space, the player on the first,
// its skeleton on the other two) with state replication on, as the
// public-API failover test builds it. mdagentd has no failover path, so
// this workload runs on netsim with real gossip timers, not over TCP.
const (
	failoverSongBytes = 256 << 10
	failoverWarmup    = 2 // trials run and discarded before timing
)

// fcTrial is one trial's measurements.
type fcTrial struct {
	detect, rehome time.Duration
	setup, outage  span
	watch          timings
}

// fcCluster mirrors the gossip timing TestPublicAPIClusterFailover uses.
func fcCluster(seed int64) *mdagent.ClusterConfig {
	return &mdagent.ClusterConfig{
		ProbeInterval:     2 * time.Millisecond,
		ProbeTimeout:      25 * time.Millisecond,
		SuspicionTimeout:  40 * time.Millisecond,
		SyncInterval:      5 * time.Millisecond,
		ReplicateState:    true,
		ReplicateInterval: 2 * time.Millisecond,
		Seed:              seed,
	}
}

// publishClock stamps, on the real clock, the instant each kernel event
// is published. In-process events carry the virtual clock's At, so the
// publish instant is taken by a synchronous kernel subscriber instead;
// a Watch delivery is matched to it by topic, attributes and At.
type publishClock struct {
	mu sync.Mutex
	at map[string]time.Time
}

func eventKey(ev ctxkernel.Event) string {
	var b strings.Builder
	b.WriteString(ev.Topic)
	fmt.Fprintf(&b, "|%d", ev.At.UnixNano())
	for _, k := range sortedKeys(ev.Attrs) {
		fmt.Fprintf(&b, "|%s=%s", k, ev.Attrs[k])
	}
	return b.String()
}

// fcRun runs one trial. o is nil for warm-up trials.
func fcRun(ctx context.Context, rng *rand.Rand, o *outcome) (*fcTrial, error) {
	t0 := time.Now()
	seed := rng.Int63()
	mw, err := mdagent.New(mdagent.Config{Seed: seed, Cluster: fcCluster(seed)})
	if err != nil {
		return nil, err
	}
	defer mw.Close()
	dev := mdagent.DeviceProfile{ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true, HasDisplay: true}
	hosts := make([]string, 3)
	spaces := make([]string, 3)
	for i := range hosts {
		hosts[i], spaces[i] = "h"+fmt.Sprint(i)+"-"+seededName(rng), "lab"+fmt.Sprint(i)+"-"+seededName(rng)
		if err := mw.AddSpace(spaces[i]); err != nil {
			return nil, err
		}
		if err := mw.AddGateway("gw-"+spaces[i], spaces[i], mdagent.Pentium4_1700()); err != nil {
			return nil, err
		}
		if _, err := mw.AddHost(hosts[i], spaces[i], mdagent.Pentium4_1700(), dev, 0); err != nil {
			return nil, err
		}
	}
	song := mdagent.GenerateFile("song-"+seededName(rng), failoverSongBytes, byte(rng.Intn(256)))
	rt0, _ := mw.Host(hosts[0])
	rt0.Library.Add(song)
	inst := demoapps.NewMediaPlayer(hosts[0], song)
	if err := mw.RunApp(ctx, hosts[0], inst); err != nil {
		return nil, err
	}
	if err := mw.RegisterResource(demoapps.MusicResource(song, hosts[0])); err != nil {
		return nil, err
	}
	for _, h := range hosts[1:] {
		if err := mw.InstallApp(ctx, h, playerApp, demoapps.MediaPlayerDesc(), demoapps.MediaPlayerSkeletonComponents(),
			func(h string) *app.Application { return demoapps.MediaPlayerSkeleton(h) }); err != nil {
			return nil, err
		}
	}

	// The control plane on the local fabric, and a watch on cluster.*.
	srvEp, err := mw.Fabric.Attach("perfbench-ctl", "")
	if err != nil {
		return nil, err
	}
	defer srvEp.Close()
	srv := mw.ServeControl(srvEp)
	defer srv.Close()
	cliEp, err := mw.Fabric.Attach("perfbench", "")
	if err != nil {
		return nil, err
	}
	defer cliEp.Close()
	cli := ctl.NewClient(cliEp, "perfbench-ctl")
	pub := &publishClock{at: map[string]time.Time{}}
	var deadAt time.Time
	deadHost := hosts[0]
	mw.Kernel.Subscribe("cluster.*", func(ev ctxkernel.Event) {
		now := time.Now()
		pub.mu.Lock()
		pub.at[eventKey(ev)] = now
		if ev.Topic == ctxkernel.TopicClusterHostDead && ev.Attr("host") == deadHost && deadAt.IsZero() {
			deadAt = now
		}
		pub.mu.Unlock()
	})
	wctx, wcancel := context.WithCancel(ctx)
	stream, err := cli.Watch(wctx, "cluster.*")
	if err != nil {
		wcancel()
		return nil, err
	}
	tr := &fcTrial{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range stream {
			now := time.Now()
			pub.mu.Lock()
			at, ok := pub.at[eventKey(ev.Event)]
			pub.mu.Unlock()
			if ok {
				tr.watch.add(at, now)
			}
		}
	}()
	defer func() {
		wcancel()
		wg.Wait()
	}()

	// Converged: every node sees three alive.
	for _, h := range hosts {
		node, _ := mw.Cluster.Node(h)
		if err := waitUntil(ctx, 10*time.Second, func() bool { return len(node.AliveHosts()) == 3 }); err != nil {
			return nil, fmt.Errorf("%s never saw 3 alive: %w", h, err)
		}
	}
	// Plant seeded in-flight state, then wait until both surviving
	// spaces' centers hold it: those records are the acked snapshots a
	// restore may legitimately return.
	pos := fmt.Sprint(rng.Intn(1_000_000))
	st, _ := inst.Component("playback-state")
	st.(*app.StateComponent).Set("positionMs", pos)
	inst.Coordinator().Set("positionMs", pos)
	var acked []app.Wrap
	for _, sp := range spaces[1:] {
		center, _ := mw.Cluster.Center(sp)
		var w app.Wrap
		if err := waitUntil(ctx, 10*time.Second, func() bool {
			rec, ok := center.LatestSnapshot(playerApp)
			if !ok {
				return false
			}
			ts, err := rec.Snapshot()
			if err != nil || ts.Wrap.CoordState["positionMs"] != pos {
				return false
			}
			w = ts.Wrap
			return true
		}); err != nil {
			return nil, fmt.Errorf("planted state never reached %s: %w", sp, err)
		}
		acked = append(acked, w)
	}
	tr.setup = span{t0, time.Now()}

	// Crash the player's host; the outage ends when a survivor runs it.
	kill := time.Now()
	if err := mw.Net.SetHostDown(deadHost, true); err != nil {
		return nil, err
	}
	landed, runAt, err := waitOnSurvivor(ctx, mw, hosts[1:])
	if o != nil {
		o.attempted++
	}
	if err != nil {
		if o != nil {
			o.fail("failover of %s: %v", deadHost, err)
		}
		return tr, nil
	}
	tr.outage = span{kill, runAt}
	pub.mu.Lock()
	if !deadAt.IsZero() {
		tr.detect = deadAt.Sub(kill)
		tr.rehome = runAt.Sub(deadAt)
	}
	pub.mu.Unlock()
	if o != nil {
		rt, _ := mw.Host(landed)
		restored, _ := rt.Engine.App(playerApp)
		w, err := restored.WrapComponents(nil)
		match := false
		for _, a := range acked {
			match = match || (err == nil && sameState(w, a))
		}
		o.check(match, "state restored on %s equals no acked snapshot", landed)
		running := 0
		for _, h := range hosts[1:] {
			rt, _ := mw.Host(h)
			if a, ok := rt.Engine.App(playerApp); ok && a.State() == app.Running {
				running++
			}
		}
		o.check(running == 1, "%d running instances among survivors", running)
	}
	// Let the narration (rehomed, restored) reach the watcher.
	time.Sleep(20 * time.Millisecond)
	return tr, nil
}

// waitOnSurvivor returns the survivor the app first runs on, and when.
func waitOnSurvivor(ctx context.Context, mw *mdagent.Middleware, survivors []string) (string, time.Time, error) {
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	type hit struct {
		host string
		at   time.Time
	}
	hits := make(chan hit, len(survivors))
	var wg sync.WaitGroup
	for _, h := range survivors {
		wg.Add(1)
		go func(h string) {
			defer wg.Done()
			if err := mw.WaitAppOn(wctx, playerApp, h, 0); err == nil {
				hits <- hit{h, time.Now()}
			}
		}(h)
	}
	var first hit
	select {
	case first = <-hits:
	case <-wctx.Done():
	}
	cancel()
	wg.Wait()
	if first.host == "" {
		return "", time.Time{}, fmt.Errorf("app never ran on a survivor")
	}
	return first.host, first.at, nil
}

func waitUntil(ctx context.Context, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// fcPhase runs trials for window, stretched until it holds need quiet
// outages, up to maxWindowMult windows.
func fcPhase(ctx context.Context, e env, rng *rand.Rand, o *outcome, window time.Duration, need int) ([]*fcTrial, timings, error) {
	var trials []*fcTrial
	var outages timings
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= window && enough(e, outages, need)) || el >= maxWindowMult*window {
			return trials, outages, nil
		}
		tr, err := fcRun(ctx, rng, o)
		if err != nil {
			return nil, nil, err
		}
		if !tr.outage.to.IsZero() {
			trials = append(trials, tr)
			outages = append(outages, tr.outage)
		}
	}
}

func runCrashFailover(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome("in-process-netsim")
	o.procs["perfbench (in-process federation)"] = e.gomaxprocs
	rng := rand.New(rand.NewSource(e.seed))
	var setups timings
	for i := 0; i < failoverWarmup; i++ {
		tr, err := fcRun(ctx, rng, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up trial: %w", err)
		}
		setups = append(setups, tr.setup)
	}
	need := tailMin(0.9)
	window := e.seconds
	if e.short || e.traced {
		need = 1
	}
	if e.traced {
		window = e.seconds / 2
	}
	trials, outages, err := fcPhase(ctx, e, rng, o, window, need)
	if err != nil {
		return nil, err
	}
	var watch timings
	for _, tr := range trials {
		setups = append(setups, tr.setup)
		watch = append(watch, tr.watch...)
	}
	if e.traced {
		if err := fcTraced(ctx, e, o, rng, window, outages.all()); err != nil {
			return nil, err
		}
	}
	o.detail["trials"] = len(trials)
	o.detail["watch_events"] = len(watch)
	o.e2e["setup_s"] = setupSeconds(e, setups)
	o.e2e["peak_rss_mb"] = vmHWM(fmt.Sprintf("/proc/%d/status", os.Getpid()))
	return o, gate(o, e, outages, watch, "")
}

// fcTraced runs the traced trials and fills the failover layers.
func fcTraced(ctx context.Context, e env, o *outcome, rng *rand.Rand, window time.Duration, untraced samples) error {
	before := indexMetrics(obs.Default.Snapshot())
	trials, outages, err := fcPhase(ctx, e, rng, o, window, 1)
	if err != nil {
		return err
	}
	after := indexMetrics(obs.Default.Snapshot())
	outage := outages.all()
	var detect, rehome samples
	for _, tr := range trials {
		detect.add(tr.detect)
		rehome.add(tr.rehome)
	}
	l := o.layer
	layerCounters(l, after, before)
	l["failover.detect_ms"] = detect.median()
	l["failover.rehome_ms"] = rehome.median()
	if err := commonProbes(ctx, o, rng, nil, songBytes); err != nil {
		return err
	}
	l["trace.op_p50_ms"] = outage.median()
	l["trace.overhead_ms"] = outage.median() - untraced.median()
	l["trace.unattributed_ms"] = outage.median() - detect.median() - rehome.median()
	zeroLayers(l)
	return nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
