package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/migrate"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// control-plane cycles one signed bundle through install (on both
// hosts), run, a seeded run of reads and stop, closed loop, against two
// trusted hosts and their registry center. Reads outnumber the four
// lifecycle ops of a cycle between two and four to one.
const (
	bundleStateBytes = 64 << 10
	readsMin         = 8 // reads per cycle: readsMin + Intn(readsSpread)
	readsSpread      = 7
	controlWarmup    = 10
)

var readOps = []string{"info", "apps", "snapshots", "members"}

// cpRig is one control-plane set-up.
type cpRig struct {
	dp       *deployment
	node     *transport.TCPNode
	space    string
	regAddr  string
	hosts    [2]string
	cli      map[string]*ctl.Client
	watchers map[string]*watcher
	cancel   context.CancelFunc
	// appName and raw are the pushed bundle; wrap its initial state.
	appName string
	raw     []byte
	wrap    app.Wrap
	trusted []ed25519.PublicKey
	// published counts app.* events each host's kernel published (one
	// per run, one per stop).
	published map[string]int
}

func (r *cpRig) close() {
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

// seededBundle packs the workload's signed bundle: a state component
// with a few seeded fields and a seeded 64 KB data component.
func seededBundle(rng *rand.Rand, name string) (raw []byte, w app.Wrap, pub ed25519.PublicKey, err error) {
	seed := randBytes(rng, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	pub = priv.Public().(ed25519.PublicKey)
	desc := bundleDesc(name)
	m := bundle.Manifest{App: name, Description: desc, Components: []bundle.ComponentSpec{
		{Name: "session", Kind: app.KindState},
		{Name: "payload", Kind: app.KindData},
	}}
	a := app.New(name, "packer", desc)
	sess := app.NewState("session")
	for i := 0; i < 4; i++ {
		sess.Set(seededName(rng), seededName(rng))
	}
	for _, c := range []app.Component{sess, app.NewBlob("payload", app.KindData, randBytes(rng, bundleStateBytes))} {
		if err := a.AddComponent(c); err != nil {
			return nil, app.Wrap{}, nil, err
		}
	}
	if w, err = a.WrapComponents(nil); err != nil {
		return nil, app.Wrap{}, nil, err
	}
	raw, err = bundle.Pack(m, &w, priv)
	return raw, w, pub, err
}

func bundleDesc(name string) wsdl.Description {
	return wsdl.Description{Name: name, Services: []wsdl.Service{{
		Name:  "notes",
		Ports: []wsdl.Port{{Name: "main", Operations: []wsdl.Operation{{Name: "edit"}}}},
	}}}
}

func cpUp(ctx context.Context, e env, rng *rand.Rand) (*cpRig, error) {
	dp, err := newDeployment(e.runRoot)
	if err != nil {
		return nil, err
	}
	r := &cpRig{dp: dp, cli: map[string]*ctl.Client{}, watchers: map[string]*watcher{}, published: map[string]int{}}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	r.space = "lab-" + seededName(rng)
	r.hosts = [2]string{"host-" + seededName(rng), "host-" + seededName(rng)}
	r.appName = "notes-" + seededName(rng)
	var pub ed25519.PublicKey
	if r.raw, r.wrap, pub, err = seededBundle(rng, r.appName); err != nil {
		return nil, err
	}
	r.trusted = []ed25519.PublicKey{pub}
	key := bundle.FormatPublicKey(pub)
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	r.regAddr = addrs[0]
	addr := map[string]string{r.hosts[0]: addrs[1], r.hosts[1]: addrs[2]}
	reg, err := dp.start(filepath.Join(e.binDir, "mdregistry"), "mdregistry", e.gomaxprocs,
		"-listen", r.regAddr, "-space", r.space, "-trust-key", key, "-store", filepath.Join(dp.dir, "registry"))
	if err != nil {
		return nil, err
	}
	if _, err := reg.waitLine("serving registry@", 15*time.Second); err != nil {
		return nil, err
	}
	var ds []*daemon
	for i, h := range r.hosts {
		peer := r.hosts[1-i]
		d, err := dp.start(filepath.Join(e.binDir, "mdagentd"), "mdagentd-"+h, e.gomaxprocs,
			"-host", h, "-listen", addr[h], "-registry", r.regAddr, "-space", r.space,
			"-peer", peer+"="+addr[peer], "-probe", "50ms", "-replicate", "20ms", "-trust-key", key)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		if _, err := d.waitLine("serving on ", 15*time.Second); err != nil {
			return nil, err
		}
	}
	if r.node, err = transport.ListenTCP("perfbench", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for _, h := range r.hosts {
		r.node.AddPeer(migrate.EndpointName(h), addr[h])
		r.cli[h] = ctl.NewClient(r.node.Endpoint(), migrate.EndpointName(h))
	}
	if err := waitConverged(ctx, r.cli, r.hosts[:]); err != nil {
		return nil, err
	}
	if err := r.cli[r.hosts[0]].PushBundle(ctx, r.appName, r.raw); err != nil {
		return nil, fmt.Errorf("push bundle: %w", err)
	}
	wctx, cancel := context.WithCancel(ctx)
	r.cancel = cancel
	for _, h := range r.hosts {
		w, err := startWatch(wctx, r.cli[h], "app.*")
		if err != nil {
			return nil, err
		}
		r.watchers[h] = w
	}
	for i := 0; i < controlWarmup; i++ {
		if _, err := r.cycle(ctx, rng, nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
	}
	for _, w := range r.watchers {
		w.resetLatency()
	}
	ok = true
	return r, nil
}

// cpTimes collects one phase's latencies.
type cpTimes struct {
	install timings
	reads   map[string]*samples
}

func newCPTimes() *cpTimes {
	t := &cpTimes{reads: map[string]*samples{}}
	for _, op := range readOps {
		t.reads[op] = &samples{}
	}
	return t
}

func (t *cpTimes) allReads() samples {
	var all samples
	for _, op := range readOps {
		all = append(all, *t.reads[op]...)
	}
	return all
}

// cycle installs the bundle on both hosts, then runs it, reads and stops
// it on a seeded host.
// Every op counts as attempted; an op error fails it and ends the cycle.
func (r *cpRig) cycle(ctx context.Context, rng *rand.Rand, o *outcome, t *cpTimes) (string, error) {
	h := r.hosts[rng.Intn(2)]
	c := r.cli[h]
	count := func(err error, format string, args ...any) error {
		if o != nil {
			o.attempted++
			if err != nil {
				o.fail(format+": %v", append(args, err)...)
			}
		}
		return err
	}
	// The bundle is installed fleet-wide, on both hosts, before it runs
	// on one of them.
	for _, ih := range r.hosts {
		t0 := time.Now()
		err := r.cli[ih].InstallBundle(ctx, r.appName, "")
		if err == nil && t != nil {
			t.install.add(t0, time.Now())
		}
		if err := count(err, "install on %s", ih); err != nil {
			return h, err
		}
	}
	if err := count(c.RunApp(ctx, r.appName, ""), "run on %s", h); err != nil {
		return h, err
	}
	r.published[h]++
	n := readsMin + rng.Intn(readsSpread)
	for i := 0; i < n; i++ {
		op := readOps[rng.Intn(len(readOps))]
		rc := r.cli[r.hosts[rng.Intn(2)]]
		t0 := time.Now()
		var err error
		switch op {
		case "info":
			_, err = rc.Info(ctx)
		case "apps":
			_, err = rc.Apps(ctx)
		case "snapshots":
			_, err = rc.Snapshots(ctx)
		case "members":
			_, err = rc.Members(ctx)
		}
		if d := time.Since(t0); err == nil && t != nil {
			t.reads[op].add(d)
		}
		if err := count(err, "%s read", op); err != nil {
			return h, err
		}
	}
	if err := count(c.StopApp(ctx, r.appName, ""), "stop on %s", h); err != nil {
		return h, err
	}
	r.published[h]++
	return h, nil
}

// cpPhase cycles for window, stretched until it holds need quiet
// installs, up to maxWindowMult windows.
func cpPhase(ctx context.Context, e env, r *cpRig, o *outcome, rng *rand.Rand, window time.Duration, need int) (*cpTimes, error) {
	t := newCPTimes()
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= window && enough(e, t.install, need)) || el >= maxWindowMult*window {
			return t, nil
		}
		if _, err := r.cycle(ctx, rng, o, t); err != nil {
			return t, err
		}
	}
}

// checkInstance runs the bundle once more on a seeded host and checks
// that the instance's replicated snapshot, read from the center, holds
// the bundle's initial state. It reports whether the snapshot's digest
// also equals the bundle state's digest.
func (r *cpRig) checkInstance(ctx context.Context, rng *rand.Rand, o *outcome) (digestMatch bool, err error) {
	h := r.hosts[rng.Intn(2)]
	c := r.cli[h]
	if err := c.InstallBundle(ctx, r.appName, ""); err != nil {
		return false, fmt.Errorf("check install: %w", err)
	}
	if err := c.RunApp(ctx, r.appName, ""); err != nil {
		return false, fmt.Errorf("check run: %w", err)
	}
	r.published[h]++
	center := cluster.CenterEndpointName(r.space)
	r.node.AddPeer(center, r.regAddr)
	snap := cluster.NewSnapshotClient(r.node.Endpoint(), center)
	deadline := time.Now().Add(10 * time.Second)
	var rec state.SnapshotRecord
	found := false
	for !found && time.Now().Before(deadline) {
		var ok bool
		var err error
		if rec, ok, err = snap.LatestSnapshot(ctx, r.appName); err != nil {
			return false, fmt.Errorf("check snapshot: %w", err)
		}
		found = ok && rec.Host == h
		if !found {
			time.Sleep(10 * time.Millisecond)
		}
	}
	same := false
	if found {
		if ts, err := rec.Snapshot(); err == nil {
			same = sameState(ts.Wrap, r.wrap)
		}
	}
	o.check(same, "instance of %s on %s: replicated snapshot (found %v) differs from the bundle's initial state", r.appName, h, found)
	// The canonical digest is reported, not checked: it hashes state
	// components' gob bytes, whose map order varies per capture, so
	// equal states with several fields can digest differently.
	digestMatch = found && rec.StateDigest == state.WrapDigest(r.wrap)
	if err := c.StopApp(ctx, r.appName, ""); err != nil {
		return digestMatch, err
	}
	r.published[h]++
	return digestMatch, nil
}

func runControlPlane(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome("loopback-tcp")
	o.procs["mdregistry"] = e.gomaxprocs
	o.procs["mdagentd x2"] = e.gomaxprocs
	rng := rand.New(rand.NewSource(e.seed))
	var installs, watchLat timings
	var reads, rss samples
	digestMatches := 0
	n, window, need := e.rounds(tailMin(0.9))
	setup, err := pooled(ctx, e, n, func() (*cpRig, error) { return cpUp(ctx, e, rng) }, func(r *cpRig) error {
		rp := probeRSSAt(window, r.dp.peakRSSMB)
		t, err := cpPhase(ctx, e, r, o, rng, window, need)
		peak := rp.value()
		if err != nil {
			return err
		}
		if e.traced {
			if err := cpTraced(ctx, e, r, o, rng, window, t); err != nil {
				return err
			}
		}
		match, err := r.checkInstance(ctx, rng, o)
		if err != nil {
			return err
		}
		if match {
			digestMatches++
		}
		for _, h := range r.hosts {
			okc, desc := r.watchers[h].conserved(r.published[h], 5*time.Second)
			o.check(okc, "watch conservation on %s: %s", h, desc)
		}
		installs = append(installs, t.install...)
		reads = append(reads, t.allReads()...)
		watchLat = append(watchLat, mergeLatencies(r.watchers[r.hosts[0]], r.watchers[r.hosts[1]])...)
		rss = append(rss, peak)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.detail["read_p50_us"] = reads.median() * 1000
	if p99, err := reads.tail("read_p99_us", 0.99); err == nil {
		o.detail["read_p99_us"] = p99 * 1000
	}
	o.detail["installs"] = len(installs)
	o.detail["reads"] = len(reads)
	o.detail["watch_events"] = len(watchLat)
	o.detail["snapshot_digest_matches_bundle"] = fmt.Sprintf("%d of %d instances", digestMatches, n)
	o.e2e["setup_s"] = setup
	o.e2e["peak_rss_mb"] = rss.median()
	return o, gate(o, e, installs, watchLat, "install_p99_ms")
}

// cpTraced runs the traced phase and fills the control-plane layers.
func cpTraced(ctx context.Context, e env, r *cpRig, o *outcome, rng *rand.Rand, window time.Duration, untraced *cpTimes) error {
	// The registry is scraped too (its store serves the Apps scans); the
	// load itself stays on the two host connections.
	center := cluster.CenterEndpointName(r.space)
	r.node.AddPeer(center, r.regAddr)
	clis := []*ctl.Client{r.cli[r.hosts[0]], r.cli[r.hosts[1]], ctl.NewClient(r.node.Endpoint(), center)}
	before, err := scrape(ctx, clis...)
	if err != nil {
		return err
	}
	t, err := cpPhase(ctx, e, r, o, rng, window, 1)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, clis...)
	if err != nil {
		return err
	}
	l := o.layer
	layerCounters(l, after, before)
	l["ctl.info_rtt_us"] = t.reads["info"].median() * 1000
	l["ctl.read_p50_us"] = t.allReads().median() * 1000
	l["registry.apps_extra_us"] = (t.reads["apps"].median() - t.reads["info"].median()) * 1000
	var verify samples
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := bundle.Open(r.raw, r.trusted); err != nil {
			return fmt.Errorf("verify probe: %w", err)
		}
		verify.add(time.Since(t0))
	}
	l["bundle.verify_ms"] = verify.median()
	if err := commonProbes(ctx, o, rng, nil, songBytes); err != nil {
		return err
	}
	l["trace.op_p50_ms"] = t.install.all().median()
	l["trace.overhead_ms"] = t.install.all().median() - untraced.install.all().median()
	// An install costs at least one ctl round trip and one bundle
	// verify; the rest (the center fetch, instantiation, registration)
	// is not covered by a layer figure measured from outside.
	l["trace.unattributed_ms"] = l["trace.op_p50_ms"] - l["ctl.info_rtt_us"]/1000 - l["bundle.verify_ms"]
	zeroLayers(l)
	return nil
}
