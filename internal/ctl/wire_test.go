package ctl

import (
	"testing"
	"time"

	"mdagent/internal/obs"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/transport/codectest"
)

// TestWireTypesUseCodecCache pins the control-plane request and reply
// bodies to the transport codec cache: byte-identical to plain gob,
// cached on both sides, and never silently on the slow path.
func TestWireTypesUseCodecCache(t *testing.T) {
	head := state.SnapshotHead{App: "player", Host: "hostA", Space: "lab1", Seq: 9, BaseSeq: 4, Chain: 5, Bytes: 2 << 20, Durable: true}
	codectest.Check(t,
		struct{}{},
		runReq{App: "player", Host: "hostA"}, bundleInstallReq{App: "player"},
		watchReq{ID: 3, Pattern: "app.*", Proto: transport.ProtoV2, FromSeq: 17},
		watchAck{Proto: transport.ProtoV2, Next: 18, Ring: 8192},
		unwatchReq{ID: 3}, traceReq{App: "player"},
		ServerInfo{Proto: transport.MaxProto, Role: "host", Host: "hostA", Space: "lab1"},
		[]MemberInfo{{ID: "hostA", Space: "lab1", State: "alive", Incarnation: 2}},
		[]AppInfo{{Name: "player", Host: "hostA", Components: []string{"ui"}, Running: true, Snapshot: &head}, {Name: "editor"}},
		[]state.SnapshotHead{head},
		[]HostStats{{Host: "hostA", Stats: state.Stats{Publishes: 4, DeltaFrames: 3}}},
		MigrateRequest{App: "player", To: "hostB"}, MigrateRequest{App: "player", Host: "hostA", To: "hostB", Static: true},
		MigrateResult{App: "player", From: "hostA", To: "hostB", Suspend: time.Millisecond, Migrate: 3 * time.Millisecond,
			Resume: 2 * time.Millisecond, BytesMoved: 2 << 20, Carried: []string{"player-logic"}, Delta: true},
		[]BundleInfo{{Name: "player", Bytes: 65536}},
		[]obs.Sample{{Name: "mdagent_ctl_requests_total", Labels: map[string]string{"op": "info"}, Type: "counter", Value: 7}},
		obs.MigrationTrace{ID: "t-1", App: "player", From: "hostA", To: "hostB", Start: time.Unix(1700000000, 0),
			Spans: []obs.Span{{Trace: "t-1", Phase: "suspend", Host: "hostA", Dur: time.Millisecond}}},
	)
}
