package main

import (
	"context"
	"fmt"

	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
)

// daemonBackend builds this host daemon's control-plane surface: the
// shared host lifecycle over the one runtime it serves (requests
// addressed to any other host are refused), introspection through the
// registry client (and, federated, the membership node + snapshot
// client), and the daemon kernel as the Watch source. Nil collaborators
// leave their operations unsupported — a standalone daemon has no
// membership view to serve.
func daemonBackend(rt *core.HostRuntime, cat *registry.Client,
	member *cluster.Node, snapCli *cluster.SnapshotClient) ctl.Backend {

	resolve := func(h, _ string) (*core.HostRuntime, error) {
		if h != "" && h != rt.Host {
			return nil, fmt.Errorf("mdagentd: %w: %q (this daemon serves %s)", ctl.ErrUnknownHost, h, rt.Host)
		}
		return rt, nil
	}
	b := core.LifecycleBackend(resolve, rt.Bundles, cat.PutBundle)
	b.Info = func(context.Context) (ctl.ServerInfo, error) {
		return ctl.ServerInfo{Role: "host", Host: rt.Host, Space: rt.Space}, nil
	}
	b.ListBundles = func(ctx context.Context) ([]ctl.BundleInfo, error) {
		infos, err := cat.Bundles(ctx)
		if err != nil {
			return nil, err
		}
		out := make([]ctl.BundleInfo, 0, len(infos))
		for _, info := range infos {
			out = append(out, ctl.BundleInfo{Name: info.Name, Bytes: info.Bytes})
		}
		return out, nil
	}
	b.Apps = func(ctx context.Context) ([]ctl.AppInfo, error) {
		recs, err := cat.Apps(ctx)
		if err != nil {
			return nil, err
		}
		var heads []state.SnapshotHead
		if snapCli != nil {
			// Heads are garnish; a center hiccup must not hide the apps.
			if hs, err := snapCli.SnapshotHeads(ctx); err == nil {
				heads = hs
			}
		}
		return ctl.JoinApps(recs, heads), nil
	}
	b.Metrics = core.ObsMetrics
	b.Trace = core.ObsTrace
	b.Kernel = rt.Kernel
	if member != nil {
		b.Members = func(context.Context) ([]ctl.MemberInfo, error) {
			members := member.Members()
			out := make([]ctl.MemberInfo, 0, len(members))
			for _, m := range members {
				out = append(out, ctl.MemberInfo{
					ID: m.ID, Space: m.Space, State: m.State.String(), Incarnation: m.Incarnation,
				})
			}
			return out, nil
		}
	}
	if snapCli != nil {
		b.Snapshots = func(ctx context.Context) ([]state.SnapshotHead, error) {
			return snapCli.SnapshotHeads(ctx)
		}
	}
	if rt.Replicator != nil {
		b.Stats = func(context.Context) ([]ctl.HostStats, error) {
			return []ctl.HostStats{{Host: rt.Host, Stats: rt.Replicator.Stats()}}, nil
		}
	}
	return b
}
