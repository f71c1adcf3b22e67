package specslice_test

// The per-phase timing breakdown is published as specslice.Timings (returned
// by the batch API and reported by internal/server), an alias of the
// canonical core.Timings that carries the wire names. These tests guard that
// contract: should the public type ever become a separate mirror again, it
// must still marshal to the same field set and carry every phase across —
// otherwise the serving contract silently drifts from the internal one.

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"specslice"
	"specslice/internal/core"
)

func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestTimingsWireNamesInSync(t *testing.T) {
	got := jsonKeys(t, core.Timings{})
	want := jsonKeys(t, specslice.Timings{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("core.Timings marshals %v,\nspecslice.Timings marshals %v — keep the wire names in sync", got, want)
	}
}

// TestTimingsConversionLossless round-trips an internal aggregate through
// the public type and checks no phase is dropped: serialized as JSON, the
// public phases must equal the internal aggregate field-for-field.
func TestTimingsConversionLossless(t *testing.T) {
	in := core.Timings{
		Encode:               1 * time.Nanosecond,
		Prestar:              2,
		AutomatonOps:         3,
		Readout:              4,
		Total:                5,
		AutomatonDeterminize: 6,
		AutomatonMinimize:    7,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out specslice.Timings
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out == (specslice.Timings{}) {
		t.Fatal("round trip lost everything")
	}
	back, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var a, b map[string]int64
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(back, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("conversion is lossy:\ncore:   %s\npublic: %s", data, back)
	}
}
