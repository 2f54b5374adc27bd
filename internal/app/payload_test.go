package app

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestSizedBlobContentGolden pins NewSizedBlob's bytes: the values are
// SHA-256 sums of the content as it was synthesized byte by byte
// (byte(i*131 + len(name))), before blobs shared one pattern buffer.
// 1 MiB is the largest shared size; 2 MiB+3 takes the copying path.
func TestSizedBlobContentGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int64
		sum  string
	}{
		{"ui", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"ui", 1, "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986"},
		{"ui", 255, "ac79bc6320123f65a128ac02c8f732647443cdfa06488c39031f0d3089af04cd"},
		{"ui", 256, "396f47c15431671804f71317286260f4ee7ef6c6028ea5bf04c2b41f01ef8078"},
		{"ui", 257, "4a7c10ab7f466826715229d7b3dbc0634614aae858af0cbe45490a2db320d5d6"},
		{"ui", 350 << 10, "dcc446fda3485cc0d94b6223226966898d953d3985d4886555e0354b92c0b785"},
		{"ui", 1 << 20, "f90cb6f55ca4c6bded44de58ea4133b40827462c8b861a73979b807d492ecddb"},
		{"ui", 2<<20 + 3, "de81af81ba749b5c97c13bc0eb75c9ea2221cccc52e6a90ac44b18905b72a90f"},
		{"codec-logic", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"codec-logic", 1, "e7cf46a078fed4fafd0b5e3aff144802b853f8ae459a4f0c14add3314b7cc3a6"},
		{"codec-logic", 255, "5cbb2ac05bdd02d6b490bebd7a56e5850ff9be90bd22cc195f7952b19312b7c9"},
		{"codec-logic", 256, "1ce298ab6311860943c8481f6443816e880b169caa5f644d0cee0625d965dfb0"},
		{"codec-logic", 257, "684d3a4e675fdafa04893965012a77b36885d9a1938179a540c895390c43b439"},
		{"codec-logic", 350 << 10, "01e748ab98c7b4c40551a290576c2655b650871c5e993b7ea425437b95a91c7a"},
		{"codec-logic", 1 << 20, "9c67709f667e9d7a247120b49fc9ab6798f9ab7d4c8d62236bb476e5a6f0d724"},
		{"codec-logic", 2<<20 + 3, "273016762115cd12b4e5aadb81c8f126c611e95b7768869070e13745cfd7fb99"},
	} {
		b := NewSizedBlob(tc.name, KindLogic, tc.size)
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(snap)) != tc.size || b.SizeBytes() != tc.size {
			t.Fatalf("%s/%d: %d bytes, SizeBytes %d", tc.name, tc.size, len(snap), b.SizeBytes())
		}
		if sum := sha256.Sum256(snap); hex.EncodeToString(sum[:]) != tc.sum {
			t.Fatalf("%s/%d: content sha256 %x, want %s", tc.name, tc.size, sum, tc.sum)
		}
		if sum := b.Checksum(); hex.EncodeToString(sum[:]) != tc.sum {
			t.Fatalf("%s/%d: Checksum %x, want %s", tc.name, tc.size, sum, tc.sum)
		}
	}
}

// TestSizedBlobOwnership checks that blobs sharing one content buffer
// stay independent: replacing one instance's payload, by SetContent or
// Restore, changes neither a second instance built from the same
// arguments nor a snapshot taken earlier, and appending to a snapshot
// cannot write into the shared bytes.
func TestSizedBlobOwnership(t *testing.T) {
	const size = 400 << 10
	a := NewSizedBlob("player-ui", KindUI, size)
	b := NewSizedBlob("player-ui", KindUI, size)
	want := b.Checksum()
	before, _ := a.Snapshot()
	beforeSum := sha256.Sum256(before)

	if cap(before) != len(before) {
		t.Fatalf("snapshot cap %d > len %d: an append would write into shared bytes", cap(before), len(before))
	}
	grown := append(before, 0xee)
	if len(grown) != size+1 || b.Checksum() != want {
		t.Fatal("append to a snapshot changed another instance")
	}

	buf := bytes.Repeat([]byte{7}, 64)
	a.SetContent(buf)
	buf[0] = 9 // SetContent copied: the caller still owns buf
	if got, _ := a.Snapshot(); got[0] != 7 || len(got) != 64 {
		t.Fatalf("SetContent retained the caller's buffer: got[0]=%d len %d", got[0], len(got))
	}
	if b.Checksum() != want {
		t.Fatal("SetContent on one instance changed another")
	}
	if err := a.Restore([]byte("restored")); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Snapshot(); string(got) != "restored" {
		t.Fatalf("after Restore: %q", got)
	}
	if b.Checksum() != want {
		t.Fatal("Restore on one instance changed another")
	}
	if sha256.Sum256(before) != beforeSum {
		t.Fatal("SetContent/Restore changed an earlier snapshot")
	}
}

// TestRecordedSnapshotsSurviveRestore checks the snapshot manager
// against zero-copy payloads: a recorded snapshot keeps its bytes
// while the live components are restored and replaced, and rolling
// back to "pre-migrate" gives back exactly the recorded bytes.
func TestRecordedSnapshotsSurviveRestore(t *testing.T) {
	a := New("player", "hostA", desc("player"))
	ui := NewUI("player-ui", 400<<10, 1024, 768)
	st := NewState("playback-state")
	for _, c := range []Component{ui, st} {
		if err := a.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	st.Set("positionMs", "100")
	wantUI := ui.Checksum()
	pre, err := a.Snapshots().Record("pre-migrate", time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	preUI := pre.Wrap.Components["player-ui"]

	// Restore an arriving wrap over the live instance, then mutate it.
	arriving := Wrap{
		App:        "player",
		Components: map[string][]byte{"player-ui": []byte("other ui")},
		Kinds:      map[string]ComponentKind{"player-ui": KindUI},
	}
	if err := a.Unwrap(arriving); err != nil {
		t.Fatal(err)
	}
	ui.SetContent([]byte("edited ui"))
	st.Set("positionMs", "200")
	if sha256.Sum256(preUI) != wantUI {
		t.Fatal("restoring the live instance changed the recorded snapshot")
	}
	if got, _ := a.Snapshots().Find("pre-migrate"); sha256.Sum256(got.Wrap.Components["player-ui"]) != wantUI {
		t.Fatal("history entry changed under the live instance")
	}

	if err := a.Snapshots().Rollback("pre-migrate"); err != nil {
		t.Fatal(err)
	}
	if ui.Checksum() != wantUI {
		t.Fatal("rollback did not restore the pre-migrate UI bytes")
	}
	if v, _ := st.Get("positionMs"); v != "100" {
		t.Fatalf("rollback position = %q, want 100", v)
	}
}
