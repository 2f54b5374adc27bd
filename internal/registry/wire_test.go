package registry

import (
	"testing"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/transport/codectest"
	"mdagent/internal/wsdl"
)

// TestWireTypesUseCodecCache pins the registry request and reply
// bodies to the transport codec cache: byte-identical to plain gob,
// cached on both sides, and never silently on the slow path.
func TestWireTypesUseCodecCache(t *testing.T) {
	rec := AppRecord{Name: "smart-media-player", Host: "hostA", Space: "lab1",
		Description: wsdl.Description{Name: "smart-media-player", Services: []wsdl.Service{{Name: "player"}}},
		Components:  []string{"player-ui", "player-logic"}, Running: true}
	res := owl.Resource{ID: "printer-1", Class: rdf.Term{Kind: rdf.KindIRI, Value: "imcl:Printer"},
		Substitutable: true, Host: "hostA", Attrs: map[string]string{"model": "laserjet"}}
	dev := wsdl.DeviceProfile{Host: "hostB", ScreenWidth: 1024, ScreenHeight: 768, MemoryMB: 512, HasAudio: true}
	codectest.Check(t,
		appKeyReq{}, appKeyReq{Name: "player", Host: "hostA"},
		lookupAppReply{}, lookupAppReply{Rec: rec, Found: true},
		hostReq{Host: "hostB"}, queryReq{Query: "SELECT ?r WHERE { ?r a imcl:Printer }"},
		rebindingReq{Src: res, DestHost: "hostB", Mode: owl.MatchSemantic},
		deviceReply{Dev: dev, Found: true},
		putBundleReq{Name: "player", Raw: []byte("MDAB")}, getBundleReq{Name: "player"},
		getBundleReply{Raw: []byte("MDAB"), Found: true},
		rec, []AppRecord{rec, {Name: "editor"}}, res, []owl.Resource{res}, dev,
		BundleRecord{Name: "player", Raw: []byte{1}}, []BundleInfo{{Name: "player"}},
	)
}
