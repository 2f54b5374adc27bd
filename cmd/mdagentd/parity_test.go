package main

import (
	"context"
	"crypto/ed25519"
	"errors"
	"reflect"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/netsim"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// packParityBundle signs a one-component bundle for appName.
func packParityBundle(t *testing.T, appName string, key ed25519.PrivateKey) []byte {
	t.Helper()
	desc := wsdl.Description{Name: appName, Services: []wsdl.Service{{
		Name: "main", Ports: []wsdl.Port{{Name: "ctl", Operations: []wsdl.Operation{{Name: "poke"}}}},
	}}}
	inst := app.New(appName, "packer", desc)
	if err := inst.AddComponent(app.NewState("settings")); err != nil {
		t.Fatal(err)
	}
	w, err := inst.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bundle.Pack(bundle.Manifest{
		App: appName, Description: desc,
		Components: []bundle.ComponentSpec{{Name: "settings", Kind: app.KindState}},
	}, &w, key)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// paritySentinels are the typed refusals a lifecycle op can give.
var paritySentinels = []error{
	ctl.ErrUnknownHost, ctl.ErrAppNotFound, ctl.ErrUnknownApp, ctl.ErrUnsupported,
	bundle.ErrUntrustedKey, bundle.ErrBadSignature, bundle.ErrUnsigned, bundle.ErrCorrupt,
}

// refusal names the sentinel err matches: "ok" for nil, "untyped" for an
// error that matches none.
func refusal(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range paritySentinels {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "untyped"
}

// runParityScript drives one lifecycle script through cli while a live
// app.* watch records the topics it publishes.
func runParityScript(t *testing.T, cli *ctl.Client, trusted, rogue []byte) (refusals []string, topics []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := cli.Watch(ctx, "app.*")
	if err != nil {
		t.Fatal(err)
	}
	const appName = "parity-notepad"
	script := []func() error{
		func() error { return cli.InstallApp(ctx, "no-such-app", "hostA") },
		func() error { return cli.RunApp(ctx, "smart-media-player", "hostA") },
		func() error { return cli.PushBundle(ctx, appName, rogue) },
		func() error { return cli.PushBundle(ctx, appName, trusted) },
		func() error { return cli.InstallBundle(ctx, appName, "hostA") },
		func() error { return cli.InstallApp(ctx, appName, "hostA") },
		func() error { return cli.RunApp(ctx, appName, "hostA") },
		func() error { return cli.RunApp(ctx, appName, "hostA") },
		func() error { return cli.StopApp(ctx, appName, "hostA") },
		func() error { return cli.StopApp(ctx, appName, "hostA") },
		func() error { return cli.RunApp(ctx, appName, "hostZ") },
		func() error { return cli.StopApp(ctx, appName, "hostZ") },
		func() error { return cli.InstallApp(ctx, appName, "hostZ") },
		func() error { return cli.InstallBundle(ctx, appName, "hostZ") },
		func() error {
			_, err := cli.Migrate(ctx, ctl.MigrateRequest{App: appName, Host: "hostZ", To: "hostA"})
			return err
		},
	}
	for _, op := range script {
		refusals = append(refusals, refusal(op()))
	}
	// The script's last lifecycle event is app.stopped; a short grace
	// after it catches any event published out of order or twice.
	grace := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch closed early")
			}
			topics = append(topics, ev.Event.Topic)
			if ev.Event.Topic == "app.stopped" {
				grace = time.After(200 * time.Millisecond)
			}
		case <-grace:
			return refusals, topics
		}
	}
}

// TestLifecycleParity drives the same control-plane script against the
// in-process middleware (LocalFabric) and a daemon over TCP with a
// registry center. Both serve the lifecycle from one implementation, so
// every op must give the same typed refusal and the watch must see the
// same app.* topics in the same order.
func TestLifecycleParity(t *testing.T) {
	pub, priv, err := bundle.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, roguePriv, err := bundle.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	trusted := packParityBundle(t, "parity-notepad", priv)
	rogue := packParityBundle(t, "parity-notepad", roguePriv)

	// (a) The in-process middleware, one host, control plane on its fabric.
	mw, err := core.New(core.Config{Seed: 3, TrustedKeys: []ed25519.PublicKey{pub}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	if err := mw.AddSpace("lab"); err != nil {
		t.Fatal(err)
	}
	dev := wsdl.DeviceProfile{ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true, HasDisplay: true}
	if _, err := mw.AddHost("hostA", "lab", netsim.Pentium4_1700(), dev, 0); err != nil {
		t.Fatal(err)
	}
	srvEp, err := mw.Fabric.Attach("ctl-server", "")
	if err != nil {
		t.Fatal(err)
	}
	srv := mw.ServeControl(srvEp)
	t.Cleanup(srv.Close)
	cliEp, err := mw.Fabric.Attach("ctl-client", "")
	if err != nil {
		t.Fatal(err)
	}
	inRefusals, inTopics := runParityScript(t, ctl.NewClient(cliEp, "ctl-server"), trusted, rogue)

	// (b) A daemon over TCP against an in-test registry center.
	regAddr, _ := bootRegistry(t)
	var out syncBuffer
	addr := startDaemon(t, &out, "-host", "hostA", "-listen", "127.0.0.1:0",
		"-registry", regAddr, "-trust-key", bundle.FormatPublicKey(pub))
	node, err := transport.ListenTCP("parity-cli", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	node.AddPeer(ctl.Alias, addr)
	dRefusals, dTopics := runParityScript(t, ctl.NewClient(node.Endpoint(), ctl.Alias), trusted, rogue)

	want := []string{
		ctl.ErrUnknownApp.Error(), ctl.ErrAppNotFound.Error(), bundle.ErrUntrustedKey.Error(),
		"ok", "ok", "ok", "ok", "untyped", "ok", ctl.ErrAppNotFound.Error(),
		ctl.ErrUnknownHost.Error(), ctl.ErrUnknownHost.Error(), ctl.ErrUnknownHost.Error(),
		ctl.ErrUnknownHost.Error(), ctl.ErrUnknownHost.Error(),
	}
	for i := range want {
		if inRefusals[i] != dRefusals[i] {
			t.Errorf("step %d: middleware %q, daemon %q", i, inRefusals[i], dRefusals[i])
		}
	}
	if !reflect.DeepEqual(inRefusals, want) {
		t.Errorf("middleware refusals %q, want %q", inRefusals, want)
	}
	if !reflect.DeepEqual(inTopics, dTopics) {
		t.Errorf("watch topics differ: middleware %q, daemon %q", inTopics, dTopics)
	}
	if wantTopics := []string{"app.started", "app.stopped"}; !reflect.DeepEqual(inTopics, wantTopics) {
		t.Errorf("middleware topics %q, want %q", inTopics, wantTopics)
	}
}
