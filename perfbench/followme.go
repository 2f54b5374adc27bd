package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"mdagent/internal/ctl"
	"mdagent/internal/migrate"
	"mdagent/internal/obs"
	"mdagent/internal/transport"
)

// The paper's follow-me payload: a smart-media-player carrying a 2.0 MB
// song (the daemon's -run flag builds it).
const (
	playerApp    = "smart-media-player"
	songBytes    = 2_000_000
	followWarmup = 20
	attributeTol = 0.15 // traced medians must add up within this share
)

// fmRig is one follow-me set-up: a registry center and two hosts, and
// the generator's single TCP node with a ctl client per host.
type fmRig struct {
	dp       *deployment
	node     *transport.TCPNode
	hosts    [2]string
	cli      map[string]*ctl.Client
	watchers []*watcher
	cancel   context.CancelFunc
	cur      int // index of the host running the player
	migrated map[string]int
}

func (r *fmRig) close() {
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

// fmUp launches the deployment, waits for membership to converge and the
// player to be listed, subscribes the watchers, and runs the warm-up.
func fmUp(ctx context.Context, e env, rng *rand.Rand) (*fmRig, error) {
	dp, err := newDeployment(e.runRoot)
	if err != nil {
		return nil, err
	}
	r := &fmRig{dp: dp, cli: map[string]*ctl.Client{}, migrated: map[string]int{}}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	space := "lab-" + seededName(rng)
	r.hosts = [2]string{"host-" + seededName(rng), "host-" + seededName(rng)}
	r.cur = rng.Intn(2)
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	regAddr, addr := addrs[0], map[string]string{r.hosts[0]: addrs[1], r.hosts[1]: addrs[2]}
	reg, err := dp.start(filepath.Join(e.binDir, "mdregistry"), "mdregistry", e.gomaxprocs,
		"-listen", regAddr, "-space", space)
	if err != nil {
		return nil, err
	}
	if _, err := reg.waitLine("serving registry@", 15*time.Second); err != nil {
		return nil, err
	}
	var ds []*daemon
	for i, h := range r.hosts {
		peer := r.hosts[1-i]
		args := []string{"-host", h, "-listen", addr[h], "-registry", regAddr, "-space", space,
			"-peer", peer + "=" + addr[peer], "-probe", "50ms",
			"-replicate", "100ms", "-install", playerApp}
		if i == r.cur {
			args = append(args, "-run", playerApp, "-song-bytes", fmt.Sprint(songBytes))
		}
		d, err := dp.start(filepath.Join(e.binDir, "mdagentd"), "mdagentd-"+h, e.gomaxprocs, args...)
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
	if err := waitRunning(ctx, r.cli[r.hosts[r.cur]], playerApp, r.hosts[r.cur]); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	r.cancel = cancel
	for _, h := range r.hosts {
		w, err := startWatch(wctx, r.cli[h], "app.*")
		if err != nil {
			return nil, err
		}
		r.watchers = append(r.watchers, w)
	}
	for i := 0; i < followWarmup; i++ {
		if _, _, _, err := r.hop(ctx, nil); err != nil {
			return nil, fmt.Errorf("warm-up hop %d: %w", i, err)
		}
	}
	for _, w := range r.watchers {
		w.resetLatency()
	}
	ok = true
	return r, nil
}

// hop migrates the player to the other host and checks the result: Apps
// lists exactly one running instance, on the destination, and the
// source's trace of the move is complete. It returns the client-observed
// latency and the trace.
func (r *fmRig) hop(ctx context.Context, o *outcome) (time.Duration, ctl.MigrateResult, obs.MigrationTrace, error) {
	src, dst := r.hosts[r.cur], r.hosts[1-r.cur]
	t0 := time.Now()
	res, err := r.cli[src].Migrate(ctx, ctl.MigrateRequest{App: playerApp, To: dst})
	lat := time.Since(t0)
	if err != nil {
		return 0, res, obs.MigrationTrace{}, fmt.Errorf("migrate %s -> %s: %w", src, dst, err)
	}
	r.migrated[src]++
	r.cur = 1 - r.cur
	apps, err := r.cli[dst].Apps(ctx)
	if err != nil {
		return 0, res, obs.MigrationTrace{}, fmt.Errorf("apps: %w", err)
	}
	tr, err := r.cli[src].Trace(ctx, playerApp)
	if err != nil {
		return 0, res, obs.MigrationTrace{}, fmt.Errorf("trace: %w", err)
	}
	if o != nil {
		running, on := 0, ""
		for _, a := range apps {
			if a.Name == playerApp && a.Running {
				running++
				on = a.Host
			}
		}
		o.check(running == 1 && on == dst, "after hop to %s: %d running instances (last on %q)", dst, running, on)
		o.check(tr.Complete() && tr.To == dst, "trace of hop to %s incomplete: %d spans, to %q", dst, len(tr.Spans), tr.To)
	}
	return lat, res, tr, nil
}

// waitConverged polls Members on every host until each sees all hosts alive.
func waitConverged(ctx context.Context, cli map[string]*ctl.Client, hosts []string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for _, h := range hosts {
			ms, err := cli[h].Members(ctx)
			alive := 0
			for _, m := range ms {
				if m.State == "alive" {
					alive++
				}
			}
			if err != nil || alive < len(hosts) {
				all = false
			}
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership did not converge on %v", hosts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRunning polls Apps until app is listed running on host.
func waitRunning(ctx context.Context, cli *ctl.Client, app, host string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		apps, err := cli.Apps(ctx)
		if err == nil {
			for _, a := range apps {
				if a.Name == app && a.Host == host && a.Running {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never listed running on %s (last error %v)", app, host, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// spanBreakdown splits one migration trace into per-phase self times.
// The destination's restore and rebind spans nest inside the source's
// transfer span, so transfer's self time is its duration minus the part
// of it they cover. root spans the earliest start to the latest end.
func spanBreakdown(tr obs.MigrationTrace) (self map[string]time.Duration, root time.Duration) {
	self = map[string]time.Duration{}
	var transfer *obs.Span
	var nested [][2]time.Time
	var first, last time.Time
	for i := range tr.Spans {
		sp := tr.Spans[i]
		end := sp.Start.Add(sp.Dur)
		if first.IsZero() || sp.Start.Before(first) {
			first = sp.Start
		}
		if end.After(last) {
			last = end
		}
		self[sp.Phase] += sp.Dur
		switch sp.Phase {
		case obs.PhaseTransfer:
			transfer = &tr.Spans[i]
		case obs.PhaseRestore, obs.PhaseRebind:
			nested = append(nested, [2]time.Time{sp.Start, end})
		}
	}
	if transfer != nil {
		self[obs.PhaseTransfer] = transfer.Dur - covered(transfer.Start, transfer.Start.Add(transfer.Dur), nested)
	}
	return self, last.Sub(first)
}

// covered is how much of [from, to) the union of intervals covers.
func covered(from, to time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var sum time.Duration
	cur := from
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			sum += e.Sub(s)
			cur = e
		}
	}
	return sum
}

func runFollowMe(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome("loopback-tcp")
	o.procs["mdregistry"] = e.gomaxprocs
	o.procs["mdagentd x2"] = e.gomaxprocs
	rng := rand.New(rand.NewSource(e.seed))
	var lat, watchLat timings
	var rss samples
	n, window, need := e.rounds(tailMin(0.9))
	setup, err := pooled(ctx, e, n, func() (*fmRig, error) { return fmUp(ctx, e, rng) }, func(r *fmRig) error {
		rp := probeRSSAt(window, r.dp.peakRSSMB)
		l, err := fmPhase(ctx, e, r, o, window, need, nil)
		peak := rp.value()
		if err != nil {
			return err
		}
		if e.traced {
			if err := fmTraced(ctx, e, o, rng, r, l.all(), window); err != nil {
				return err
			}
		}
		for i, h := range r.hosts {
			// The daemon publishes one app.* event per control-plane
			// migration, on the source host; its watcher must see each.
			okc, desc := r.watchers[i].conserved(r.migrated[h], 5*time.Second)
			o.check(okc, "watch conservation on %s: %s", h, desc)
		}
		lat = append(lat, l...)
		watchLat = append(watchLat, mergeLatencies(r.watchers...)...)
		rss = append(rss, peak)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.detail["migrations"] = len(lat)
	o.detail["watch_events"] = len(watchLat)
	o.e2e["setup_s"] = setup
	o.e2e["peak_rss_mb"] = rss.median()
	return o, gate(o, e, lat, watchLat, "migrate_p99_ms")
}

// fmTraced runs the traced phase on r after the untraced one.
func fmTraced(ctx context.Context, e env, o *outcome, rng *rand.Rand, r *fmRig, untraced samples, window time.Duration) error {
	clis := []*ctl.Client{r.cli[r.hosts[0]], r.cli[r.hosts[1]]}
	before, err := scrape(ctx, clis...)
	if err != nil {
		return err
	}
	tr := &fmTrace{}
	traced, err := fmPhase(ctx, e, r, o, window, 1, tr)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, clis...)
	if err != nil {
		return err
	}
	layerCounters(o.layer, after, before)
	fmLayers(o, untraced, traced.all(), tr)
	if err := commonProbes(ctx, o, rng, clis[0], songBytes); err != nil {
		return err
	}
	zeroLayers(o.layer)
	return nil
}

// fmTrace accumulates the traced phase's per-op breakdown.
type fmTrace struct {
	ops   []fmOp
	bytes samples
}

// fmOp is one traced migration split into the layer figures the per-layer
// metrics report. The parts sum to e2e exactly.
type fmOp struct {
	e2e   float64
	parts map[string]float64
}

// fmParts names the parts of a traced migration, in catalog order.
var fmParts = []string{"ctl.dispatch_ms", "migrate.suspend_ms", "migrate.capture_ms",
	"migrate.transfer_self_ms", "migrate.restore_ms", "migrate.rebind_ms", "trace.unattributed_ms"}

// fmPhase runs hops for window, stretched until it holds need quiet
// samples, up to maxWindowMult windows, and returns their timings.
func fmPhase(ctx context.Context, e env, r *fmRig, o *outcome, window time.Duration, need int, tr *fmTrace) (timings, error) {
	var lat timings
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= window && enough(e, lat, need)) || el >= maxWindowMult*window {
			break
		}
		from := time.Now()
		d, res, trace, err := r.hop(ctx, o)
		if err != nil {
			o.attempted++
			o.fail("%v", err)
			return lat, err
		}
		o.attempted++ // the migration itself
		lat.add(from, from.Add(d))
		if tr != nil {
			self, root := spanBreakdown(trace)
			parts := map[string]float64{
				"ctl.dispatch_ms":          ms(d - root),
				"migrate.suspend_ms":       ms(self[obs.PhaseSuspend]),
				"migrate.capture_ms":       ms(self[obs.PhaseCapture]),
				"migrate.transfer_self_ms": ms(self[obs.PhaseTransfer]),
				"migrate.restore_ms":       ms(self[obs.PhaseRestore]),
				"migrate.rebind_ms":        ms(self[obs.PhaseRebind]),
			}
			rest := ms(d)
			for _, v := range parts {
				rest -= v
			}
			parts["trace.unattributed_ms"] = rest
			tr.ops = append(tr.ops, fmOp{e2e: ms(d), parts: parts})
			tr.bytes = append(tr.bytes, float64(res.BytesMoved))
		}
	}
	return lat, nil
}

// fmLayers fills the follow-me per-layer metrics from the traced phase.
// Medians of the parts do not add up to the median migration, so each
// part is its mean over the median band: the traced migrations between
// the 40th and 60th percentile of end-to-end time. Their parts sum to
// the band's mean, which the check holds to the op p50 within
// attributeTol.
func fmLayers(o *outcome, untraced, traced samples, tr *fmTrace) {
	l := o.layer
	ops := append([]fmOp(nil), tr.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].e2e < ops[j].e2e })
	band := ops[len(ops)*2/5 : max(len(ops)*3/5, len(ops)*2/5+1)]
	sum := 0.0
	for _, k := range fmParts {
		var v float64
		for _, op := range band {
			v += op.parts[k]
		}
		l[k] = v / float64(len(band))
		sum += l[k]
	}
	l["migrate.bytes"] = tr.bytes.median()
	l["trace.op_p50_ms"] = traced.median()
	l["trace.overhead_ms"] = traced.median() - untraced.median()
	gap := sum - traced.median()
	o.detail["attribution_sum_ms"] = sum
	o.detail["attribution_gap_ms"] = gap
	o.check(abs(gap) <= attributeTol*traced.median(),
		"traced self times + unattributed = %.3f ms, op p50 %.3f ms (tolerance %.0f%%)", sum, traced.median(), attributeTol*100)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
