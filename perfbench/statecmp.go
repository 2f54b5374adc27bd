package main

import (
	"bytes"
	"encoding/gob"
	"maps"

	"mdagent/internal/app"
)

// sameState reports whether two wraps hold the same application state:
// the same components of the same kinds and content, coordinator state
// and profile. State components are compared as decoded field maps,
// because their serialized form is a gob-encoded map whose byte order
// varies from one capture to the next.
func sameState(a, b app.Wrap) bool {
	if a.App != b.App || len(a.Components) != len(b.Components) {
		return false
	}
	for name, ab := range a.Components {
		bb, ok := b.Components[name]
		if !ok || a.Kinds[name] != b.Kinds[name] {
			return false
		}
		if a.Kinds[name] == app.KindState {
			af, aerr := stateFields(ab)
			bf, berr := stateFields(bb)
			if aerr != nil || berr != nil || !maps.Equal(af, bf) {
				return false
			}
		} else if !bytes.Equal(ab, bb) {
			return false
		}
	}
	return maps.Equal(a.CoordState, b.CoordState) && a.Profile.User == b.Profile.User &&
		maps.Equal(a.Profile.Preferences, b.Profile.Preferences)
}

func stateFields(raw []byte) (map[string]string, error) {
	fields := map[string]string{}
	err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&fields)
	return fields, err
}
