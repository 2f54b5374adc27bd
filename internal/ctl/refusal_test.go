package ctl_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// TestPreV2InputRefused sends, from a raw endpoint, the request shapes
// only a pre-v2 peer produces: a watch subscribe in the old {ID,
// Pattern} shape, and gob-sealed snapshot and bundle pushes. Each must
// get its typed refusal — ErrUnsupported for the subscribe,
// transport.ErrVersion for the pushes — and leave nothing behind: no
// kernel subscription, no stored snapshot, no stored bundle.
func TestPreV2InputRefused(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	regDB, err := registry.New(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	centerName := cluster.CenterEndpointName("lab")
	centerEp, err := fab.Attach(centerName, "")
	if err != nil {
		t.Fatal(err)
	}
	center := cluster.NewCenter("lab", regDB, centerEp, cluster.Config{SyncInterval: time.Hour, Seed: 7})
	center.Serve(centerEp)
	t.Cleanup(center.Stop)

	kernel := ctxkernel.NewKernel()
	ctlEp, err := fab.Attach("ctl-srv", "")
	if err != nil {
		t.Fatal(err)
	}
	srv := ctl.NewServer(ctl.Backend{Kernel: kernel, PushBundle: center.PutBundle})
	srv.Serve(ctlEp)
	t.Cleanup(srv.Close)

	peer, err := fab.Attach("pre-v2-peer", "")
	if err != nil {
		t.Fatal(err)
	}
	seal := func(v any) []byte {
		t.Helper()
		payload, err := transport.EncodeSealed(v)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	// The request bodies exactly as a pre-v2 binary gob-encoded them.
	type oldWatchReq struct {
		ID      uint64
		Pattern string
	}
	type oldBundlePushReq struct {
		Name string
		Raw  []byte
	}

	cases := []struct {
		name    string
		to      string
		msgType string
		payload []byte
		want    error
	}{
		{"watch-v1-subscribe", "ctl-srv", ctl.MsgWatch,
			seal(oldWatchReq{ID: 1, Pattern: "*"}), ctl.ErrUnsupported},
		{"snap-put-gob", centerName, cluster.MsgPutSnapshot,
			seal(state.SnapshotPut{App: "player", Host: "hostA", Frame: []byte("frame")}), transport.ErrVersion},
		{"bundle-push-gob", "ctl-srv", ctl.MsgBundlePush,
			seal(oldBundlePushReq{Name: "player", Raw: []byte("bundle bytes")}), transport.ErrVersion},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := peer.Request(ctx, tc.to, tc.msgType, tc.payload); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if n := kernel.SubscriberCount(); n != 0 {
				t.Fatalf("refused request left %d kernel subscriptions", n)
			}
			if heads := center.SnapshotHeads(); len(heads) != 0 {
				t.Fatalf("refused request stored snapshots: %+v", heads)
			}
			if bundles, err := center.Bundles(ctx); err != nil || len(bundles) != 0 {
				t.Fatalf("refused request stored bundles: %+v (err %v)", bundles, err)
			}
		})
	}
}
