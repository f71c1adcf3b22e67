package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"specslice/internal/workload"
)

// TestWireSchemaKeys pins the JSON keys, in order, of the timing objects
// clients parse: the Fig. 21 phase breakdown and the cold-build breakdown
// in /v1/stats, and the batch stats (with its phases) in a slice response.
// Every duration must marshal as an integer count of nanoseconds.
func TestWireSchemaKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	phases := []string{"encode_ns", "prestar_ns", "automaton_ns", "determinize_ns", "minimize_ns", "readout_ns", "total_ns"}
	build := []string{"workers", "modref_ns", "modref_intern_ns", "modref_local_ns", "modref_fixpoint_ns", "pdg_ns", "connect_ns", "total_ns"}
	batch := []string{"requests", "failed", "workers", "wall_ns", "work_ns", "phases"}

	status, _, raw := postSlice(t, ts.URL, SliceRequest{
		Program:  workload.Fig1Source,
		Criteria: []CriterionRequest{{Kind: "printf", Proc: "main"}},
		NoSource: true,
	})
	if status != http.StatusOK {
		t.Fatalf("slice status %d: %s", status, raw)
	}
	slice := json.RawMessage(raw)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		raw  json.RawMessage
		want []string
	}{
		{"/v1/stats phases", member(t, stats, "phases"), phases},
		{"/v1/stats build", member(t, stats, "build"), build},
		{"slice stats", member(t, slice, "stats"), batch},
		{"slice stats.phases", member(t, member(t, slice, "stats"), "phases"), phases},
	} {
		keys, values := objectKeys(t, c.raw)
		if !reflect.DeepEqual(keys, c.want) {
			t.Errorf("%s keys:\n got %v\nwant %v", c.name, keys, c.want)
		}
		for i, k := range keys {
			if k == "phases" {
				continue
			}
			if _, err := strconv.ParseInt(string(values[i]), 10, 64); err != nil {
				t.Errorf("%s.%s = %s, want an integer", c.name, k, values[i])
			}
		}
	}
}

// member returns the raw value of key in the JSON object raw.
func member(t *testing.T, raw json.RawMessage, key string) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	v, ok := m[key]
	if !ok {
		t.Fatalf("no %q in %s", key, raw)
	}
	return v
}

// objectKeys returns the keys of the JSON object raw in wire order, with
// each key's raw value.
func objectKeys(t *testing.T, raw json.RawMessage) (keys []string, values []json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		values = append(values, v)
	}
	return keys, values
}
