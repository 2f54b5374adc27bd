package migrate

import (
	"runtime"
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/demoapps"
	"mdagent/internal/state"
)

// TestStateOnlyCheckinAllocations bounds what the destination allocates
// per adaptive follow-me check-in when it already holds the installed
// skeleton: the wrap carries only playback state, so restoring it must
// not synthesize or copy the skeleton's 400 KB player UI. Each check-in
// builds a fresh instance from the factory, as the first arrival on a
// host does.
func TestStateOnlyCheckinAllocations(t *testing.T) {
	r := newRig(t, songSize)
	const name = "smart-media-player"
	r.engB.InstallFactory(name, demoapps.MediaPlayerSkeleton)

	st := app.NewState("playback-state")
	st.Set("track", "song1")
	st.Set("positionMs", "93500")
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := state.EncodeWrap(app.Wrap{
		App: name, FromHost: "hostA",
		Components: map[string][]byte{"playback-state": snap},
		Kinds:      map[string]app.ComponentKind{"playback-state": app.KindState},
		CoordState: map[string]string{"track": "song1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := checkinPayload{App: name, Mode: FollowMe, Binding: BindingAdaptive,
		Desc: demoapps.MediaPlayerDesc(), FromHost: "hostA", FromEngine: EndpointName("hostA"),
		WrapRaw: raw}
	checkin := func() {
		t.Helper()
		if _, err := r.engB.restore(p, name); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.engB.Remove(name); !ok {
			t.Fatal("check-in left no instance")
		}
	}
	checkin() // first use builds the shared sized-blob content

	const n = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		checkin()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 64<<10 {
		t.Fatalf("state-only check-in allocated %d bytes, want <= %d", per, 64<<10)
	} else {
		t.Logf("state-only check-in allocated %d bytes", per)
	}
}
