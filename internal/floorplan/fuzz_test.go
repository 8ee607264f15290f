package floorplan

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzFloorplanJSON feeds arbitrary bytes to the floorplan decoder. It
// must never panic, and whatever it accepts must survive a
// MarshalJSON/UnmarshalJSON round trip unchanged: the same die, the same
// units in the same order, and the same bytes when marshalled again.
//
//	go test ./internal/floorplan -run '^$' -fuzz FuzzFloorplanJSON -fuzztime 10s
func FuzzFloorplanJSON(f *testing.F) {
	for _, fp := range []*Floorplan{AlphaEV6(), QuadCore()} {
		data, err := json.Marshal(fp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		"", "null", "{}", "[]", "not json",
		`{"width": 1, "height": 1, "units": null}`,
		`{"width": 1, "height": 1, "units": [{"Name": "a", "Rect": {"X": 0, "Y": 0, "W": 1, "H": 1}}]}`,
		`{"width": 1e-3, "height": 1e-3, "units": [{"Name": "a", "Rect": {"X": 0, "Y": 0, "W": 1e-3, "H": 2e-3}}]}`,
		`{"WIDTH": 2, "Height": 1, "units": [{"name": "b", "rect": {"x": 1, "y": 0, "w": 1, "h": 1}}]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fp Floorplan
		if err := fp.UnmarshalJSON(data); err != nil {
			return
		}
		first, err := fp.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted floorplan does not marshal: %v", err)
		}
		var back Floorplan
		if err := back.UnmarshalJSON(first); err != nil {
			t.Fatalf("marshalled floorplan does not unmarshal: %v\n%s", err, first)
		}
		if back.Width != fp.Width || back.Height != fp.Height || !reflect.DeepEqual(back.Units(), fp.Units()) {
			t.Fatalf("floorplan changed across a round trip:\n%+v\nvs\n%+v", fp, back)
		}
		for i, u := range fp.Units() {
			if back.UnitIndex(u.Name) != i {
				t.Fatalf("unit %q: index %d after the round trip, want %d", u.Name, back.UnitIndex(u.Name), i)
			}
		}
		second, err := back.MarshalJSON()
		if err != nil {
			t.Fatalf("round-tripped floorplan does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshalled bytes changed across a round trip:\n%s\nvs\n%s", first, second)
		}
	})
}
