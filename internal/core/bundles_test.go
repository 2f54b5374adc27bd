package core

import (
	"context"
	"crypto/ed25519"
	"errors"
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/migrate"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// packGateBundle signs a one-component bundle for appName with a fresh
// key, optionally declaring a secret reference.
func packGateBundle(t *testing.T, appName string, secrets ...bundle.SecretRef) ([]byte, ed25519.PublicKey) {
	t.Helper()
	pub, priv, err := bundle.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	desc := wsdl.Description{Name: appName, Services: []wsdl.Service{{
		Name: "main", Ports: []wsdl.Port{{Name: "ctl", Operations: []wsdl.Operation{{Name: "poke"}}}},
	}}}
	m := bundle.Manifest{
		App: appName, Description: desc,
		Components: []bundle.ComponentSpec{{Name: "settings", Kind: app.KindState}},
		Secrets:    secrets,
	}
	inst := app.New(appName, "packer", desc)
	if err := inst.AddComponent(app.NewState("settings")); err != nil {
		t.Fatal(err)
	}
	w, err := inst.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bundle.Pack(m, &w, priv)
	if err != nil {
		t.Fatal(err)
	}
	return raw, pub
}

// fakeRecords is a Records whose writes fail on demand.
type fakeRecords struct {
	bundles     map[string][]byte
	putErr      error
	registerErr error
	registered  []registry.AppRecord
}

func (f *fakeRecords) RegisterApp(_ context.Context, rec registry.AppRecord) error {
	if f.registerErr != nil {
		return f.registerErr
	}
	f.registered = append(f.registered, rec)
	return nil
}

func (f *fakeRecords) UnregisterApp(context.Context, string, string) error { return nil }

func (f *fakeRecords) GetBundle(_ context.Context, name string) ([]byte, bool, error) {
	raw, ok := f.bundles[name]
	return raw, ok, nil
}

func (f *fakeRecords) PutBundle(_ context.Context, name string, raw []byte) error {
	if f.putErr != nil {
		return f.putErr
	}
	f.bundles[name] = raw
	return nil
}

type bundleCounts struct{ rejected, bytes, pushes, installs int64 }

func readBundleCounts() bundleCounts {
	return bundleCounts{mBundleRejected.Value(), mBundleBytes.Value(), mBundlePushes.Value(), mBundleInstalls.Value()}
}

// TestBundleCounterDefinitions pins the four mdagent_bundle_* counters
// to their definitions: rejected = refused by verification or
// instantiation; bytes = len(raw) of every verified bundle; pushes =
// pushes whose store returned nil or ErrNotDurable; installs = installs
// that were registered. A push whose store fails is not a push.
func TestBundleCounterDefinitions(t *testing.T) {
	raw, pub := packGateBundle(t, "gate-app")
	secretRaw, secretPub := packGateBundle(t, "secret-app", bundle.SecretRef{Key: "token", Ref: "ref://env/GATE_TEST_UNSET"})
	n := int64(len(raw))
	gate := BundleGate{
		Trusted: []ed25519.PublicKey{pub, secretPub},
		Secrets: bundle.Resolver{LookupEnv: func(string) (string, bool) { return "", false }},
	}
	ctx := context.Background()
	storeErr := errors.New("store down")

	cases := []struct {
		name string
		op   func(f *fakeRecords) error
		want bundleCounts
		ok   bool
	}{
		{"untrusted push", func(f *fakeRecords) error {
			return BundleGate{}.Push(ctx, f.PutBundle, "gate-app", raw)
		}, bundleCounts{rejected: 1}, false},
		{"misnamed push", func(f *fakeRecords) error {
			return gate.Push(ctx, f.PutBundle, "other-app", raw)
		}, bundleCounts{rejected: 1}, false},
		{"push, store fails", func(f *fakeRecords) error {
			f.putErr = storeErr
			return gate.Push(ctx, f.PutBundle, "gate-app", raw)
		}, bundleCounts{bytes: n}, false},
		{"push, store not durable", func(f *fakeRecords) error {
			f.putErr = state.ErrNotDurable
			return gate.Push(ctx, f.PutBundle, "gate-app", raw)
		}, bundleCounts{bytes: n, pushes: 1}, true},
		{"push", func(f *fakeRecords) error {
			return gate.Push(ctx, f.PutBundle, "gate-app", raw)
		}, bundleCounts{bytes: n, pushes: 1}, true},
		{"install, register fails", func(f *fakeRecords) error {
			f.bundles["gate-app"] = raw
			f.registerErr = storeErr
			return gateHost(t, f, gate).InstallBundle(ctx, "gate-app")
		}, bundleCounts{bytes: n}, false},
		{"install, secret unresolved", func(f *fakeRecords) error {
			f.bundles["secret-app"] = secretRaw
			return gateHost(t, f, gate).InstallBundle(ctx, "secret-app")
		}, bundleCounts{rejected: 1, bytes: int64(len(secretRaw))}, false},
		{"install", func(f *fakeRecords) error {
			f.bundles["gate-app"] = raw
			return gateHost(t, f, gate).InstallBundle(ctx, "gate-app")
		}, bundleCounts{bytes: n, installs: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeRecords{bundles: make(map[string][]byte)}
			before := readBundleCounts()
			err := tc.op(f)
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want success %v", err, tc.ok)
			}
			after := readBundleCounts()
			got := bundleCounts{
				after.rejected - before.rejected, after.bytes - before.bytes,
				after.pushes - before.pushes, after.installs - before.installs,
			}
			if got != tc.want {
				t.Fatalf("counter deltas = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// gateHost is a runtime with just enough wiring to install apps.
func gateHost(t *testing.T, f *fakeRecords, gate BundleGate) *HostRuntime {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach(migrate.EndpointName("gate-host"), "")
	if err != nil {
		t.Fatal(err)
	}
	return &HostRuntime{
		Host:    "gate-host",
		Engine:  migrate.NewEngine("gate-host", ep, nil, nil, nil, migrate.DefaultCosts()),
		Records: f, Kernel: ctxkernel.NewKernel(), Clock: &vclock.Real{}, Bundles: gate,
	}
}

// TestInstallPrefersRecordedSkeleton: ctl install records a compiled-in
// skeleton's description and components as recorded — no instance is
// built — and falls back to the stored bundle only without one.
func TestInstallPrefersRecordedSkeleton(t *testing.T) {
	f := &fakeRecords{bundles: make(map[string][]byte)}
	rt := gateHost(t, f, BundleGate{})
	built := 0
	desc := wsdl.Description{Name: "skel"}
	rt.AddSkeleton("skel", Skeleton{
		Description: desc, Components: []string{"a", "b"},
		Factory: func(h string) *app.Application { built++; return app.New("skel", h, desc) },
	})
	ctx := context.Background()
	if err := rt.Install(ctx, "skel"); err != nil {
		t.Fatal(err)
	}
	if built != 0 {
		t.Fatalf("install built %d instances", built)
	}
	if len(f.registered) != 1 || f.registered[0].Description.Name != "skel" || len(f.registered[0].Components) != 2 {
		t.Fatalf("registered %+v", f.registered)
	}
	if _, ok := rt.Engine.Factory("skel"); !ok {
		t.Fatal("factory not installed")
	}
	if err := rt.Install(ctx, "nothing"); !errors.Is(err, ctl.ErrUnknownApp) {
		t.Fatalf("install without skeleton or bundle: %v, want ErrUnknownApp", err)
	}
}
