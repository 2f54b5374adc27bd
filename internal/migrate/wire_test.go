package migrate

import (
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/transport/codectest"
	"mdagent/internal/wsdl"
)

// TestWireTypesUseCodecCache pins the migration wire types to the
// transport codec cache: byte-identical to plain gob, cached on both
// sides, and never silently on the slow path.
func TestWireTypesUseCodecCache(t *testing.T) {
	res := owl.Resource{ID: "song-1", Class: rdf.Term{Kind: rdf.KindIRI, Value: "imcl:Song"},
		Transferable: true, Host: "hostA", SizeBytes: 2 << 20, Attrs: map[string]string{"format": "mp3"}}
	desc := wsdl.Description{Name: "smart-media-player", Version: "1",
		Services:    []wsdl.Service{{Name: "player"}},
		Requires:    wsdl.Requirements{MinMemoryMB: 64, NeedsAudio: true},
		Preferences: []wsdl.Preference{{Key: "volume", Value: "7"}}}
	codectest.Check(t,
		checkinPayload{},
		checkinPayload{App: "player", Mode: CloneDispatch, Binding: BindingAdaptive, CloneName: "player-2",
			WrapRaw: []byte("MDST frame"), Desc: desc, FromHost: "hostA", FromEngine: EndpointName("hostA"),
			Rebindings: []owl.Rebinding{{Source: res, Action: owl.RebindUseLocal, Target: res, Reason: "equivalent"}},
			TraceID:    "t-1"},
		checkinPayload{App: "player", DeltaRaw: []byte{1, 2, 3}},
		checkinReply{},
		checkinReply{ResumeNanos: 1234, AdaptNotes: []string{"ui rebound"}, RestoredApp: "player",
			Spans: []obs.Span{{Trace: "t-1", App: "player", Phase: "restore", Host: "hostB",
				Start: time.Unix(1700000000, 5), Dur: time.Millisecond, Note: "full"}}},
		syncPayload{App: "player-2", Change: app.StateChange{Key: "pos", Value: "42", Seq: 9, Origin: "player"}},
	)
}
