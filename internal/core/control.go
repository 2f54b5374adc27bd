package core

import (
	"context"
	"fmt"
	"sort"

	"mdagent/internal/ctl"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// ControlBackend exposes the full deployment to the versioned control
// plane: the shared host lifecycle (LifecycleBackend over every
// provisioned host; a stop or migrate that omits the host finds the app),
// introspection (members + incarnations, registry records joined with
// snapshot heads, replicator stats), and the kernel as the Watch event
// source.
func (m *Middleware) ControlBackend() ctl.Backend {
	b := LifecycleBackend(m.resolve, m.bundleGate(), m.records("").PutBundle)
	b.Info = func(context.Context) (ctl.ServerInfo, error) {
		return ctl.ServerInfo{Role: "middleware"}, nil
	}
	b.Members = m.ctlMembers
	b.Apps = m.ctlApps
	b.Snapshots = m.ctlSnapshots
	b.Stats = m.ctlStats
	b.ListBundles = m.ctlListBundles
	b.Metrics = ObsMetrics
	b.Trace = ObsTrace
	b.Kernel = m.Kernel
	return b
}

// ObsMetrics is the shared ctl.Backend.Metrics implementation: a
// snapshot of the process-wide obs registry. The cmd daemons reuse it.
func ObsMetrics(context.Context) ([]obs.Sample, error) {
	return obs.Default.Snapshot(), nil
}

// ObsTrace is the shared ctl.Backend.Trace implementation: the latest
// migration trace recorded for app in this process.
func ObsTrace(_ context.Context, app string) (obs.MigrationTrace, error) {
	tr, ok := obs.Traces.Latest(app)
	if !ok {
		return obs.MigrationTrace{}, fmt.Errorf("core: %w: no migration trace for %q", ctl.ErrAppNotFound, app)
	}
	return tr, nil
}

// ServeControl binds the control plane onto ep — tests and multi-space
// deployments may serve several endpoints from one Server.
func (m *Middleware) ServeControl(ep *transport.Endpoint) *ctl.Server {
	return ctl.NewServer(m.ControlBackend()).Serve(ep)
}

// ctlMembers reports the gossip view of the first (sorted) provisioned
// host's node — any node converges to the same table; picking one keeps
// the answer a consistent cut instead of a union of mid-gossip views.
func (m *Middleware) ctlMembers(context.Context) ([]ctl.MemberInfo, error) {
	if m.Cluster == nil {
		return nil, fmt.Errorf("%w: deployment is not clustered", ctl.ErrUnsupported)
	}
	for _, host := range m.Hosts() {
		node, ok := m.Cluster.Node(host)
		if !ok {
			continue
		}
		members := node.Members()
		out := make([]ctl.MemberInfo, 0, len(members))
		for _, mem := range members {
			out = append(out, ctl.MemberInfo{
				ID: mem.ID, Space: mem.Space,
				State: mem.State.String(), Incarnation: mem.Incarnation,
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out, nil
	}
	return nil, nil
}

// snapshotHeads unions every center's snapshot heads (centers converge
// via federation; mid-replication they may briefly disagree, so
// consumers pick the freshest Seq per app).
func (m *Middleware) snapshotHeads() []state.SnapshotHead {
	if m.Cluster == nil {
		return nil
	}
	var heads []state.SnapshotHead
	for _, space := range m.Cluster.Spaces() {
		center, ok := m.Cluster.Center(space)
		if !ok {
			continue
		}
		heads = append(heads, center.SnapshotHeads()...)
	}
	return heads
}

// ctlApps joins installation records with replicated snapshot heads.
func (m *Middleware) ctlApps(context.Context) ([]ctl.AppInfo, error) {
	var recs []registry.AppRecord
	if m.Cluster != nil {
		seen := make(map[string]bool)
		for _, space := range m.Cluster.Spaces() {
			center, ok := m.Cluster.Center(space)
			if !ok {
				continue
			}
			rs, err := center.Registry().Apps()
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				key := r.Name + "\x00" + r.Host
				if !seen[key] {
					seen[key] = true
					recs = append(recs, r)
				}
			}
		}
	} else {
		var err error
		recs, err = m.Registry.Apps()
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Host != recs[j].Host {
			return recs[i].Host < recs[j].Host
		}
		return recs[i].Name < recs[j].Name
	})
	return ctl.JoinApps(recs, m.snapshotHeads()), nil
}

func (m *Middleware) ctlSnapshots(context.Context) ([]state.SnapshotHead, error) {
	if m.Cluster == nil {
		return nil, fmt.Errorf("%w: deployment is not clustered", ctl.ErrUnsupported)
	}
	freshest := make(map[string]state.SnapshotHead)
	for _, h := range m.snapshotHeads() {
		if ex, ok := freshest[h.App]; !ok || h.Seq > ex.Seq {
			freshest[h.App] = h
		}
	}
	out := make([]state.SnapshotHead, 0, len(freshest))
	for _, h := range freshest {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out, nil
}

func (m *Middleware) ctlStats(context.Context) ([]ctl.HostStats, error) {
	var out []ctl.HostStats
	for _, host := range m.Hosts() {
		rt, ok := m.Host(host)
		if !ok || rt.Replicator == nil {
			continue
		}
		out = append(out, ctl.HostStats{Host: host, Stats: rt.Replicator.Stats()})
	}
	return out, nil
}
