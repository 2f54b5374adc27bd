package cluster

import (
	"crypto/sha256"
	"testing"
	"time"

	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport/codectest"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// TestWireTypesUseCodecCache pins the federation push, snapshot and
// gossip messages to the transport codec cache: byte-identical to plain
// gob, cached on both sides, and never silently on the slow path.
func TestWireTypesUseCodecCache(t *testing.T) {
	ver := vclock.Version{"lab1": 3}
	at := time.Unix(1700000000, 42)
	snap := state.SnapshotRecord{App: "player", Host: "hostA", Space: "lab1", Seq: 5, At: at,
		Frame: []byte("MDST base"), BaseSeq: 4, Deltas: [][]byte{[]byte("MDST delta")}, Durable: true}
	records := []Record{
		{Key: "app/hostA/player", Kind: RecordApp, Origin: "lab1", Version: ver,
			App: registry.AppRecord{Name: "player", Host: "hostA", Space: "lab1", Components: []string{"ui"}, Running: true}},
		{Key: "res/hostA/printer", Kind: RecordResource, Origin: "lab2", Version: ver, Res: owl.Resource{ID: "printer", Host: "hostA"}},
		{Key: "dev/hostB", Kind: RecordDevice, Version: ver, Dev: wsdl.DeviceProfile{Host: "hostB", MemoryMB: 256}},
		{Key: "snap/player", Kind: RecordSnapshot, Version: ver, Snap: snap},
		{Key: "bundle/player", Kind: RecordBundle, Version: ver, Deleted: true, Bdl: registry.BundleRecord{Name: "player"}},
	}
	members := []Member{{ID: "hostA", Endpoint: "node@hostA", Space: "lab1", State: StateAlive, Incarnation: 4}, {ID: "hostB"}}
	digest := [sha256.Size]byte{1, 2, 3}
	codectest.Check(t,
		pingMsg{}, pingMsg{From: "hostA", Updates: members, Full: true, Table: members},
		ackMsg{OK: true, Updates: members[:1]},
		pingReqMsg{From: "hostA", Target: members[1], Updates: members},
		pushMsg{From: "lab1", Records: records}, pushMsg{From: "lab2", Records: records[:1]},
		durableMsg{From: "lab1", Key: "snap/player", Version: ver},
		snapDeltaAck{}, snapDeltaAck{Applied: true},
		snapDeltaMsg{From: "lab1", Key: "snap/player", Version: ver, Seq: 6, Host: "hostA", Space: "lab1", At: at,
			BaseDigest: digest, NewDigest: digest, Delta: []byte("MDST delta")},
		digestMsg{From: "lab1", Digest: map[string]vclock.Version{"app/hostA/player": ver}},
		digestReply{Records: records},
		getSnapshotReq{App: "player"}, getSnapshotReq{App: "player", Have: true, HaveBaseSeq: 4, HaveSeq: 5, HaveDigest: digest},
		getSnapshotReply{Rec: snap, Found: true, DeltaOnly: true},
		dropSnapshotReq{App: "player", Host: "hostA"},
		listSnapsReply{Heads: []state.SnapshotHead{snap.Head()}},
		records[0],
	)
}
