package core

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sort"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
)

// Bundle accounting, process-wide and registered only here: every
// process that gates bundles (the in-process Middleware, mdagentd,
// mdregistry) books them through BundleGate, so /metrics reads the same
// across the fleet. Definitions (DESIGN.md §10):
var (
	// mBundleRejected counts bundles refused by verification or by
	// instantiation.
	mBundleRejected = obs.Default.Counter("mdagent_bundle_rejected_total")
	// mBundleBytes sums len(raw) of every bundle that passed verification.
	mBundleBytes = obs.Default.Counter("mdagent_bundle_bytes_total")
	// mBundlePushes counts pushes whose store returned nil or
	// ErrNotDurable.
	mBundlePushes = obs.Default.Counter("mdagent_bundle_pushes_total")
	// mBundleInstalls counts bundle installs that were registered.
	mBundleInstalls = obs.Default.Counter("mdagent_bundle_installs_total")
)

// BundlePut stores a verified bundle under its app name.
type BundlePut func(ctx context.Context, name string, raw []byte) error

// BundleGate is the trust gate every signed app bundle crosses: on push
// at whichever process receives it, and again on install.
type BundleGate struct {
	// Trusted are the accepted publisher keys. None refuses every bundle
	// with bundle.ErrUntrustedKey — trust is opt-in.
	Trusted []ed25519.PublicKey
	// Secrets resolves a manifest's ref:// secret references at
	// instantiation.
	Secrets bundle.Resolver
}

// Open verifies raw against the trusted keys and checks that the
// manifest names the app the bundle is stored (or pushed) as — storing
// it under any other key would let an installer fetch a verified but
// wrong artifact.
func (g BundleGate) Open(name string, raw []byte) (*bundle.Bundle, error) {
	b, err := bundle.Open(raw, g.Trusted)
	if err != nil {
		mBundleRejected.Inc()
		return nil, fmt.Errorf("core: refuse bundle %q: %w", name, err)
	}
	if b.Manifest.App != name {
		mBundleRejected.Inc()
		return nil, fmt.Errorf("core: refuse bundle: %w: named %q but manifest declares %q",
			bundle.ErrCorrupt, name, b.Manifest.App)
	}
	mBundleBytes.Add(int64(len(raw)))
	return b, nil
}

// Push verifies raw and stores it through put. A durability shortfall
// counts as stored: the bundle landed locally, and anti-entropy finishes
// the fan-out (the same contract as the registry write handlers).
func (g BundleGate) Push(ctx context.Context, put BundlePut, name string, raw []byte) error {
	if _, err := g.Open(name, raw); err != nil {
		return err
	}
	if err := ignoreNotDurable(put(ctx, name, raw)); err != nil {
		return err
	}
	mBundlePushes.Inc()
	return nil
}

// instantiate verifies raw and assembles its application factory.
func (g BundleGate) instantiate(name string, raw []byte) (*bundle.Bundle, func(host string) *app.Application, error) {
	b, err := g.Open(name, raw)
	if err != nil {
		return nil, nil, err
	}
	factory, err := bundle.Instantiate(b, g.Secrets)
	if err != nil {
		mBundleRejected.Inc()
		return nil, nil, fmt.Errorf("core: instantiate bundle %q: %w", name, err)
	}
	return b, factory, nil
}

// bundleGate is the deployment's gate, shared by every host.
func (m *Middleware) bundleGate() BundleGate {
	return BundleGate{Trusted: m.cfg.TrustedKeys, Secrets: m.cfg.Secrets}
}

// PushBundle verifies a signed app bundle against the deployment's
// trusted keys and stores it: at the first space's federated center
// when clustered (whence it replicates everywhere), else at the single
// registry.
func (m *Middleware) PushBundle(ctx context.Context, name string, raw []byte) error {
	return m.bundleGate().Push(ctx, m.records("").PutBundle, name, raw)
}

// InstallBundle assembles an application factory from a stored, signed
// bundle and installs it on host — the generic arm of InstallApp: no
// compiled-in factory needed, the manifest is the skeleton.
func (m *Middleware) InstallBundle(ctx context.Context, appName, host string) error {
	rt, err := m.resolve(host, "")
	if err != nil {
		return err
	}
	return rt.InstallBundle(ctx, appName)
}

// ListBundles lists the stored bundles, deduplicated across the
// federation's centers when clustered.
func (m *Middleware) ListBundles(context.Context) ([]registry.BundleInfo, error) {
	if m.Cluster == nil {
		return m.Registry.Bundles()
	}
	seen := make(map[string]registry.BundleInfo)
	for _, space := range m.Cluster.Spaces() {
		center, ok := m.Cluster.Center(space)
		if !ok {
			continue
		}
		infos, err := center.Bundles(context.Background())
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			seen[info.Name] = info
		}
	}
	out := make([]registry.BundleInfo, 0, len(seen))
	for _, info := range seen {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ctlListBundles adapts ListBundles to the control plane's reply shape.
func (m *Middleware) ctlListBundles(ctx context.Context) ([]ctl.BundleInfo, error) {
	infos, err := m.ListBundles(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]ctl.BundleInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, ctl.BundleInfo{Name: info.Name, Bytes: info.Bytes})
	}
	return out, nil
}

// records is the in-process deployment's Records for hosts in space:
// the space's federated center when clustered, else the single
// registry. A durability shortfall is not an error here — the write
// landed locally and already surfaced as a cluster.degraded event.
type records struct {
	m     *Middleware
	space string
}

// records returns the Records of hosts in space.
func (m *Middleware) records(space string) records { return records{m: m, space: space} }

func (r records) center(space string) (*cluster.Center, bool) {
	if r.m.Cluster == nil {
		return nil, false
	}
	return r.m.Cluster.Center(space)
}

func (r records) RegisterApp(ctx context.Context, rec registry.AppRecord) error {
	if center, ok := r.center(r.space); ok {
		return ignoreNotDurable(center.RegisterApp(ctx, rec))
	}
	return r.m.Registry.RegisterApp(rec)
}

func (r records) UnregisterApp(ctx context.Context, appName, host string) error {
	if center, ok := r.center(r.space); ok {
		return ignoreNotDurable(center.UnregisterApp(ctx, appName, host))
	}
	return r.m.Registry.UnregisterApp(appName, host)
}

// GetBundle prefers the space's own center (federation replication makes
// any center equivalent once converged; mid-replication the local one is
// what the host can reach), then walks the others.
func (r records) GetBundle(ctx context.Context, name string) ([]byte, bool, error) {
	if r.m.Cluster == nil {
		return r.m.Registry.GetBundle(name)
	}
	for _, space := range append([]string{r.space}, r.m.Cluster.Spaces()...) {
		center, ok := r.center(space)
		if !ok {
			continue
		}
		raw, found, err := center.GetBundle(ctx, name)
		if err != nil || found {
			return raw, found, err
		}
	}
	return nil, false, nil
}

// PutBundle stores at the first space's center, whence it replicates
// everywhere.
func (r records) PutBundle(ctx context.Context, name string, raw []byte) error {
	if r.m.Cluster != nil {
		for _, space := range r.m.Cluster.Spaces() {
			if center, ok := r.center(space); ok {
				return ignoreNotDurable(center.PutBundle(ctx, name, raw))
			}
		}
	}
	return r.m.Registry.PutBundle(name, raw)
}
