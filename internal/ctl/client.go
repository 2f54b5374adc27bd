package ctl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdagent/internal/ctxkernel"
	"mdagent/internal/obs"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// Client is a typed handle to a control-plane server. It works over any
// transport fabric — the in-process LocalFabric and real TCP — and its
// errors satisfy the same errors.Is contracts as in-process calls
// (ErrUnknownHost, ErrAppNotFound, ErrUnsupported, ErrVersion).
type Client struct {
	ep     *transport.Endpoint
	server string
	// SubscribeTimeout bounds Watch's subscribe request (the stream
	// itself is unbounded and lives until its context is canceled).
	// Zero takes 30 seconds.
	SubscribeTimeout time.Duration
}

// NewClient creates a client that calls the control plane served at
// server through ep. Over TCP, server is usually the well-known Alias
// registered against the daemon's address.
func NewClient(ep *transport.Endpoint, server string) *Client {
	return &Client{ep: ep, server: server}
}

func (c *Client) subscribeTimeout() time.Duration {
	if c.SubscribeTimeout > 0 {
		return c.SubscribeTimeout
	}
	return 30 * time.Second
}

func (c *Client) call(ctx context.Context, msgType string, req, out any) error {
	payload, err := transport.EncodeSealed(req)
	if err != nil {
		return err
	}
	return c.ep.RequestDecode(ctx, c.server, msgType, payload, out)
}

// Info describes the server (role, host, space, protocol version).
func (c *Client) Info(ctx context.Context) (ServerInfo, error) {
	var info ServerInfo
	if err := c.call(ctx, MsgInfo, struct{}{}, &info); err != nil {
		return ServerInfo{}, err
	}
	return info, nil
}

// Members lists the server's gossip membership view with incarnations.
func (c *Client) Members(ctx context.Context) ([]MemberInfo, error) {
	var out []MemberInfo
	if err := c.call(ctx, MsgMembers, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Apps lists application installation records with replicated-snapshot
// metadata joined on.
func (c *Client) Apps(ctx context.Context) ([]AppInfo, error) {
	var out []AppInfo
	if err := c.call(ctx, MsgApps, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Snapshots lists the heads of every replicated snapshot record the
// server knows (durable/delta-chain metadata, no frames).
func (c *Client) Snapshots(ctx context.Context) ([]state.SnapshotHead, error) {
	var out []state.SnapshotHead
	if err := c.call(ctx, MsgSnapshots, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats returns the replication counters per host.
func (c *Client) Stats(ctx context.Context) ([]HostStats, error) {
	var out []HostStats
	if err := c.call(ctx, MsgStats, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics snapshots the server process's obs metrics registry.
func (c *Client) Metrics(ctx context.Context) ([]obs.Sample, error) {
	var out []obs.Sample
	if err := c.call(ctx, MsgMetrics, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace returns app's latest migration trace: the five-phase timeline
// assembled across both hosts (the source merges the destination's
// restore/rebind spans from the checkin reply).
func (c *Client) Trace(ctx context.Context, app string) (obs.MigrationTrace, error) {
	var out obs.MigrationTrace
	if err := c.call(ctx, MsgTrace, traceReq{App: app}, &out); err != nil {
		return obs.MigrationTrace{}, err
	}
	return out, nil
}

// RunApp runs an installed application by name on host ("" = the
// serving host).
func (c *Client) RunApp(ctx context.Context, app, host string) error {
	return c.call(ctx, MsgRun, runReq{App: app, Host: host}, nil)
}

// StopApp gracefully stops a running application on host ("" = the
// serving host): suspend, tombstone its replicated snapshot, unregister.
func (c *Client) StopApp(ctx context.Context, app, host string) error {
	return c.call(ctx, MsgStop, runReq{App: app, Host: host}, nil)
}

// Migrate follow-mes an application to req.To and returns the
// three-phase timing report.
func (c *Client) Migrate(ctx context.Context, req MigrateRequest) (MigrateResult, error) {
	var res MigrateResult
	if err := c.call(ctx, MsgMigrate, req, &res); err != nil {
		return MigrateResult{}, err
	}
	return res, nil
}

// InstallApp installs a named application on host ("" = the serving
// host): a compiled-in skeleton when the host has one, else its stored
// bundle. A host with neither fails with ErrUnknownApp.
func (c *Client) InstallApp(ctx context.Context, app, host string) error {
	return c.call(ctx, MsgInstall, runReq{App: app, Host: host}, nil)
}

// PushBundle uploads a signed app bundle to the serving center/host,
// which verifies it against its trusted keys and (when federated)
// replicates it to every space. The payload rides a v2 fast frame — a
// multi-megabyte bundle skips gob's reflection walk and byte-slice
// re-copy.
func (c *Client) PushBundle(ctx context.Context, name string, raw []byte) error {
	body := transport.AppendString(make([]byte, 0, len(name)+len(raw)+16), name)
	body = transport.AppendBytes(body, raw)
	payload := transport.SealFast(transport.OpBundlePush, body)
	return c.ep.RequestDecode(ctx, c.server, MsgBundlePush, payload, nil)
}

// Bundles lists the bundles stored at the serving center/host.
func (c *Client) Bundles(ctx context.Context) ([]BundleInfo, error) {
	var out []BundleInfo
	if err := c.call(ctx, MsgBundleList, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// InstallBundle instantiates a stored bundle on host ("" = the serving
// host), skipping any compiled-in factory of the same name.
func (c *Client) InstallBundle(ctx context.Context, app, host string) error {
	return c.call(ctx, MsgBundleInstall, bundleInstallReq{App: app, Host: host}, nil)
}

// --- Watch: server-streamed typed events. ---

// clientEvent is one pushed event as the sink buffers it: the bus form
// plus the stream metadata.
type clientEvent struct {
	Ev   ctxkernel.Event
	Seq  uint64
	Lost uint64
}

// clientSink buffers one watch's pushed events on the client side.
// lost accumulates events this sink could not buffer (plus their
// piggybacked server-side drop counts), reported on the next delivered
// event so the in-band drop accounting survives client-side pressure
// exactly as it survives server-side pressure.
type clientSink struct {
	ch   chan clientEvent
	mu   sync.Mutex
	lost uint64
}

// sinkQueueLen sizes the sink buffer: a replay hands the client a whole
// ring's backlog in a few dozen batched frames.
const sinkQueueLen = 4096

// dispatcher fans incoming event-batch pushes out to this endpoint's live
// watches. One dispatcher per endpoint (the endpoint has a single
// handler slot per message type), shared by every Client on it; the
// registry entry is dropped again when its last watch ends, so
// short-lived endpoints are not pinned for process lifetime.
type dispatcher struct {
	mu    sync.Mutex
	sinks map[uint64]*clientSink
}

// watchIDs allocates watch ids process-wide. Ids must never collide
// across a dispatcher's teardown/recreate cycle: a watch resumed right
// after its predecessor's cancellation must not inherit the
// predecessor's id, or the server would treat the new subscribe as an
// idempotent retry and straggler pushes would land in the wrong sink.
var watchIDs atomic.Uint64

var (
	dispMu      sync.Mutex
	dispatchers = make(map[*transport.Endpoint]*dispatcher)
)

// watchSlot allocates a watch id + sink on ep's dispatcher, creating
// and registering the dispatcher (and its MsgEventV2 handler) on first
// use. Creation and allocation happen under one lock so a concurrent
// teardown of the endpoint's last watch cannot orphan the new slot.
func watchSlot(ep *transport.Endpoint) (*dispatcher, uint64, *clientSink) {
	dispMu.Lock()
	defer dispMu.Unlock()
	d, ok := dispatchers[ep]
	if !ok {
		d = &dispatcher{sinks: make(map[uint64]*clientSink)}
		dispatchers[ep] = d
		// An ordered handler: a single worker processes frames in
		// arrival order, so the stream the watcher sees is the stream
		// the server sent.
		ep.HandleOrdered(MsgEventV2, func(msg transport.Message) ([]byte, error) {
			id, lost, events, err := decodeEventBatch(msg.Payload)
			if err != nil {
				return nil, nil // torn push: drop (one-way, nothing to answer)
			}
			if len(events) == 0 {
				// Overflow report with nothing deliverable: bank the
				// count for the next delivered event.
				d.bankLost(id, lost)
				return nil, nil
			}
			for i, se := range events {
				ce := clientEvent{Ev: se.Event, Seq: se.Seq}
				if i == 0 {
					ce.Lost = lost
				}
				d.offer(id, ce)
			}
			return nil, nil
		})
	}
	id := watchIDs.Add(1)
	sink := &clientSink{ch: make(chan clientEvent, sinkQueueLen)}
	d.mu.Lock()
	d.sinks[id] = sink
	d.mu.Unlock()
	return d, id, sink
}

// offer hands one event to a watch's sink, folding the banked lost
// count into it, or — when the sink is full — banks the event itself
// (plus whatever loss it was reporting) so the accounting conserves.
func (d *dispatcher) offer(id uint64, ce clientEvent) {
	d.mu.Lock()
	sink, ok := d.sinks[id]
	d.mu.Unlock()
	if !ok {
		return
	}
	sink.mu.Lock()
	ce.Lost += sink.lost
	sink.lost = 0
	sink.mu.Unlock()
	select {
	case sink.ch <- ce:
	default:
		sink.mu.Lock()
		sink.lost += 1 + ce.Lost
		sink.mu.Unlock()
	}
}

// bankLost adds a loss count to a watch's carry without an event.
func (d *dispatcher) bankLost(id, lost uint64) {
	if lost == 0 {
		return
	}
	d.mu.Lock()
	sink, ok := d.sinks[id]
	d.mu.Unlock()
	if !ok {
		return
	}
	sink.mu.Lock()
	sink.lost += lost
	sink.mu.Unlock()
}

// freeWatchSlot releases a watch id, unregistering the endpoint's
// dispatcher entirely when it was the last one.
func freeWatchSlot(ep *transport.Endpoint, d *dispatcher, id uint64) {
	dispMu.Lock()
	defer dispMu.Unlock()
	d.mu.Lock()
	delete(d.sinks, id)
	empty := len(d.sinks) == 0
	d.mu.Unlock()
	if empty && dispatchers[ep] == d {
		delete(dispatchers, ep)
	}
}

// Watch subscribes to the server's kernel with a topic pattern (exact
// topic, "prefix.*", or "*"; "" means "*") and streams matching events,
// decoded to their typed forms, until ctx is canceled. The returned
// channel closes promptly on cancellation (the unsubscribe is sent
// best-effort), and the whole stream costs one request: pushed events
// ride one-way messages on the connection's learned route.
func (c *Client) Watch(ctx context.Context, pattern string) (<-chan WatchEvent, error) {
	return c.WatchFrom(ctx, pattern, 0)
}

// WatchFrom is Watch with replay: fromSeq non-zero asks the server to
// re-deliver its event stream starting at that sequence number
// (inclusive) out of its replay ring before going live, so a watcher
// that disconnected resumes at WatchEvent.Seq+1 with nothing dropped.
// A from-seq the ring no longer retains fails with ErrReplayGap (the
// caller decides whether live-from-now is acceptable).
func (c *Client) WatchFrom(ctx context.Context, pattern string, fromSeq uint64) (<-chan WatchEvent, error) {
	d, id, sink := watchSlot(c.ep)
	req := watchReq{ID: id, Pattern: pattern, Proto: transport.ProtoV2, FromSeq: fromSeq}
	payload, err := transport.EncodeSealed(req)
	if err != nil {
		freeWatchSlot(c.ep, d, id)
		return nil, err
	}
	// The subscribe request gets its own deadline under ctx: the stream
	// context deliberately has none (it lives until canceled), but a
	// server that accepts the connection and never answers must fail
	// the call, not wedge it.
	sctx, scancel := context.WithTimeout(ctx, c.subscribeTimeout())
	_, err = c.ep.Request(sctx, c.server, MsgWatch, payload)
	scancel()
	if err != nil {
		freeWatchSlot(c.ep, d, id)
		return nil, fmt.Errorf("ctl: watch subscribe: %w", err)
	}
	out := make(chan WatchEvent, 16)
	go func() {
		defer close(out)
		defer func() {
			freeWatchSlot(c.ep, d, id)
			c.unwatch(id)
		}()
		for {
			select {
			case <-ctx.Done():
				return
			case ce := <-sink.ch:
				we := WatchEvent{Event: ce.Ev, Typed: ctxkernel.FromBus(ce.Ev), Lost: ce.Lost, Seq: ce.Seq}
				select {
				case out <- we:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out, nil
}

// unwatch sends a best-effort server-side unsubscribe; a dead link
// retires the watch on its own via the server's push error path.
func (c *Client) unwatch(id uint64) {
	uctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = c.call(uctx, MsgUnwatch, unwatchReq{ID: id}, nil)
}
