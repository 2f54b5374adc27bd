package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/owl"
	"mdagent/internal/platform"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// eventSource is the Source of every event a host's lifecycle publishes.
const eventSource = "core"

// Records is the record store a host's lifecycle writes through: the
// installation records migration planning reads, and the bundles
// installs fetch. *registry.Client satisfies it for mdagentd; the
// in-process Middleware routes to the host's space center when
// clustered, else to its single registry.
type Records interface {
	RegisterApp(ctx context.Context, rec registry.AppRecord) error
	UnregisterApp(ctx context.Context, app, host string) error
	GetBundle(ctx context.Context, name string) ([]byte, bool, error)
	PutBundle(ctx context.Context, name string, raw []byte) error
}

// Skeleton is an installable compiled-in application: the factory the
// engine builds instances from, plus the description and components the
// registry records for it, so an install never builds an instance just
// to read them.
type Skeleton struct {
	Description wsdl.Description
	Components  []string
	Factory     func(host string) *app.Application
}

// HostRuntime is everything MDAgent runs on one host, and the one
// implementation of a host's lifecycle: run, stop, migrate, install and
// bundle install. The in-process Middleware keeps one per provisioned
// host; cmd/mdagentd builds one for the host it serves. Both serve the
// control plane's lifecycle ops from it through LifecycleBackend.
type HostRuntime struct {
	Host   string
	Space  string
	Engine *migrate.Engine
	// Container is the host's agent container (nil in mdagentd, which
	// runs no agents).
	Container *platform.Container
	Library   *media.Library
	// Replicator streams this host's application snapshots to its space
	// center (nil when the host does not replicate).
	Replicator *state.Replicator
	// Records is where the lifecycle records installations and fetches
	// bundles.
	Records Records
	// Kernel receives the lifecycle's app.* and state.replicated events,
	// stamped by Clock.
	Kernel *ctxkernel.Kernel
	Clock  vclock.Clock
	// Bundles verifies and instantiates the signed bundles this host
	// installs.
	Bundles BundleGate

	// knows reports whether a migration destination exists. Nil accepts
	// any destination: a daemon knows only itself, and the migration's
	// own planning refuses a host the registry has never seen.
	knows func(host string) bool

	mu        sync.Mutex
	skeletons map[string]Skeleton
}

// AddSkeleton makes a compiled-in skeleton installable by name on this
// host without installing it.
func (rt *HostRuntime) AddSkeleton(name string, sk Skeleton) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.skeletons == nil {
		rt.skeletons = make(map[string]Skeleton)
	}
	rt.skeletons[name] = sk
}

// Install provisions appName on the host (the "application exists at
// destination" case) and records the installation: from its compiled-in
// skeleton when the host has one, else from its stored bundle. With
// neither, the refusal is ctl.ErrUnknownApp.
func (rt *HostRuntime) Install(ctx context.Context, appName string) error {
	rt.mu.Lock()
	sk, ok := rt.skeletons[appName]
	rt.mu.Unlock()
	if !ok {
		return rt.InstallBundle(ctx, appName)
	}
	rt.Engine.InstallFactory(appName, sk.Factory)
	return rt.Records.RegisterApp(ctx, registry.AppRecord{
		Name: appName, Host: rt.Host, Space: rt.Space,
		Description: sk.Description, Components: sk.Components,
	})
}

// InstallBundle assembles an application factory from appName's stored
// bundle and installs it: no compiled-in skeleton needed, the signed
// manifest is the skeleton. The bundle is re-verified even though its
// push was, because in a federation the bytes may have arrived by
// replication from a center this host never vetted.
func (rt *HostRuntime) InstallBundle(ctx context.Context, appName string) error {
	raw, found, err := rt.Records.GetBundle(ctx, appName)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: %w: %q on %s (push its bundle first)", ctl.ErrUnknownApp, appName, rt.Host)
	}
	b, factory, err := rt.Bundles.instantiate(appName, raw)
	if err != nil {
		return err
	}
	rt.Engine.InstallFactory(appName, factory)
	components := make([]string, 0, len(b.Manifest.Components))
	for _, spec := range b.Manifest.Components {
		components = append(components, spec.Name)
	}
	if err := rt.Records.RegisterApp(ctx, registry.AppRecord{
		Name: appName, Host: rt.Host, Space: rt.Space,
		Description: b.Manifest.Description, Components: components,
	}); err != nil {
		return err
	}
	mBundleInstalls.Inc()
	return nil
}

// Start runs appName from the factory installed on the host. Without
// one the refusal is ctl.ErrAppNotFound.
func (rt *HostRuntime) Start(ctx context.Context, appName string) error {
	factory, ok := rt.Engine.Factory(appName)
	if !ok {
		return fmt.Errorf("core: %w: no skeleton for %q installed on %s", ctl.ErrAppNotFound, appName, rt.Host)
	}
	return rt.Run(ctx, factory(rt.Host))
}

// Run starts a constructed application on the host, records it as
// running and publishes app.started.
func (rt *HostRuntime) Run(ctx context.Context, inst *app.Application) error {
	if err := rt.Engine.Run(inst); err != nil {
		return err
	}
	if rt.Replicator != nil {
		// A restart after a graceful stop lifts the snapshot retirement.
		rt.Replicator.Reinstate(inst.Name())
	}
	if err := rt.Records.RegisterApp(ctx, registry.AppRecord{
		Name: inst.Name(), Host: rt.Host, Space: rt.Space,
		Description: inst.Description(), Components: inst.Components(),
		Running: true,
	}); err != nil {
		return err
	}
	rt.Kernel.PublishTyped(eventSource, ctxkernel.AppStartedEvent{
		App: inst.Name(), Host: rt.Host, At: rt.Clock.Now(),
	})
	return nil
}

// Stop gracefully stops a running application: the instance is
// suspended, its replicated snapshot tombstoned (so failover never
// resurrects a deliberately stopped app), its record unregistered, and
// only then is it removed from the engine — if a step fails mid-way the
// app stays addressable, so a retried Stop completes the tombstone path
// instead of erroring on a ghost.
func (rt *HostRuntime) Stop(ctx context.Context, appName string) error {
	inst, ok := rt.Engine.App(appName)
	if !ok {
		return fmt.Errorf("core: %w: no running app %q on %s", ctl.ErrAppNotFound, appName, rt.Host)
	}
	if inst.State() == app.Running {
		if err := inst.Suspend(); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if rt.Replicator != nil {
		if err := ignoreNotDurable(rt.Replicator.Retire(ctx, appName)); err != nil {
			return err
		}
	}
	if err := rt.Records.UnregisterApp(ctx, appName, rt.Host); err != nil {
		return err
	}
	rt.Engine.Remove(appName)
	rt.Kernel.PublishTyped(eventSource, ctxkernel.AppStoppedEvent{
		App: appName, Host: rt.Host, At: rt.Clock.Now(),
	})
	return nil
}

// Migrate follow-mes a running application to dest and reports the
// outcome as a typed app.migrated / app.migrate-failed event — the same
// event contract the agents use, so a watch sees operator- and
// agent-driven moves alike.
func (rt *HostRuntime) Migrate(ctx context.Context, appName, dest string, binding migrate.BindingMode) (migrate.Report, error) {
	if _, ok := rt.Engine.App(appName); !ok {
		return migrate.Report{}, fmt.Errorf("core: %w: no running app %q on %s", ctl.ErrAppNotFound, appName, rt.Host)
	}
	if rt.knows != nil && !rt.knows(dest) {
		return migrate.Report{}, fmt.Errorf("core: %w: %q", ctl.ErrUnknownHost, dest)
	}
	rep, err := rt.Engine.FollowMe(ctx, appName, dest, binding, owl.MatchSemantic)
	now := rt.Clock.Now()
	if err != nil {
		rt.Kernel.PublishTyped(eventSource, ctxkernel.AppMigrateFailedEvent{
			App: appName, Dest: dest, Reason: "control plane", Error: err.Error(), At: now,
		})
		return migrate.Report{}, err
	}
	rt.Kernel.PublishTyped(eventSource, ctxkernel.AppMigratedEvent{
		App: appName, Dest: dest, Mode: migrate.FollowMe.String(), Reason: "control plane",
		SuspendMs: rep.Suspend.Milliseconds(), MigrateMs: rep.Migrate.Milliseconds(),
		ResumeMs: rep.Resume.Milliseconds(), Bytes: rep.BytesMoved, At: now,
	})
	return rep, nil
}

// Replicate makes rep the host's replicator, reports each snapshot it
// publishes as a typed state.replicated event, and starts it.
func (rt *HostRuntime) Replicate(rep *state.Replicator) {
	rep.OnPublish(func(put state.SnapshotPut, stamp state.SnapshotStamp) {
		kind := "full"
		if put.Delta {
			kind = "delta"
		}
		rt.Kernel.PublishTyped("state", ctxkernel.StateReplicatedEvent{
			App: put.App, Host: put.Host, FrameKind: kind,
			Seq: stamp.Seq, Bytes: len(put.Frame), Chain: stamp.Chain, At: put.At,
		})
	})
	rt.Replicator = rep
	rep.Start()
}

// HostResolver maps a control request's host field to the runtime that
// serves it. app is the running application a stop or migrate concerns
// ("" for ops that address a host rather than an instance), so a
// deployment that knows where every app runs can serve requests that
// omit the host.
type HostResolver func(host, app string) (*HostRuntime, error)

// LifecycleBackend builds the lifecycle half of a ctl.Backend — run,
// stop, migrate, install, bundle install and bundle push — over resolve.
// Pushes cross gate and are stored through put. Callers add the
// introspection ops that differ between deployments.
func LifecycleBackend(resolve HostResolver, gate BundleGate, put BundlePut) ctl.Backend {
	return ctl.Backend{
		RunApp: func(ctx context.Context, appName, host string) error {
			rt, err := resolve(host, "")
			if err != nil {
				return err
			}
			return rt.Start(ctx, appName)
		},
		StopApp: func(ctx context.Context, appName, host string) error {
			rt, err := resolve(host, appName)
			if err != nil {
				return err
			}
			return rt.Stop(ctx, appName)
		},
		Migrate: func(ctx context.Context, req ctl.MigrateRequest) (ctl.MigrateResult, error) {
			rt, err := resolve(req.Host, req.App)
			if err != nil {
				return ctl.MigrateResult{}, err
			}
			binding := migrate.BindingAdaptive
			if req.Static {
				binding = migrate.BindingStatic
			}
			rep, err := rt.Migrate(ctx, req.App, req.To, binding)
			if err != nil {
				return ctl.MigrateResult{}, err
			}
			return ctl.MigrateResult{
				App: req.App, From: rt.Host, To: req.To,
				Suspend: rep.Suspend, Migrate: rep.Migrate, Resume: rep.Resume,
				BytesMoved: rep.BytesMoved, Carried: rep.Carried, Delta: rep.Delta,
			}, nil
		},
		Install: func(ctx context.Context, appName, host string) error {
			rt, err := resolve(host, "")
			if err != nil {
				return err
			}
			return rt.Install(ctx, appName)
		},
		InstallBundle: func(ctx context.Context, appName, host string) error {
			rt, err := resolve(host, "")
			if err != nil {
				return err
			}
			return rt.InstallBundle(ctx, appName)
		},
		PushBundle: func(ctx context.Context, name string, raw []byte) error {
			return gate.Push(ctx, put, name, raw)
		},
	}
}
