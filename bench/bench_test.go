package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"specslice/internal/server"
)

// declared is the part of BENCHMARK.json the benchmark must agree with
// (encoding/json matches its lower-case keys to these fields).
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit, Better string }

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatch keeps BENCHMARK.json and the benchmark's own
// tables in step: same workloads and reasons, same metrics, units and
// directions, in the same order.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		decl []declaredMetric
		defs []metricDef
	}{{d.EndToEnd, endToEnd}, {d.PerLayer, perLayer}} {
		var got []declaredMetric
		for _, m := range c.defs {
			got = append(got, declaredMetric{m.name, m.unit, m.better})
		}
		if !reflect.DeepEqual(got, c.decl) {
			t.Errorf("the benchmark emits\n%v\nBENCHMARK.json declares\n%v", got, c.decl)
		}
	}
}

// TestWorkloadsSmoke runs every workload end to end, traced, at a tiny op
// count against a freshly built server, and checks that the run is correct
// and emits every declared metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	d := readDeclared(t)
	bin, err := buildServer("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := workloads[i]
		w.warmup, w.ops = 10, 40
		t.Run(w.name, func(t *testing.T) {
			rec, err := run(runConfig{
				spec: &w, seed: 7, seconds: 60, trace: true, root: "..", bin: bin,
				setups: 1, tracePath: filepath.Join(t.TempDir(), "trace.json"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Ops != w.ops {
				t.Errorf("correct %v, %d of %d ops failed, want all %d correct", rec.Correct, rec.Failed, rec.Ops, w.ops)
			}
			for _, m := range d.EndToEnd {
				if v, ok := rec.Metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, %v; want a positive value", m.Name, v, ok)
				}
			}
			for _, m := range d.PerLayer {
				if _, ok := rec.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
			}
		})
	}
}

// TestGateCatchesTamperedSource serves real slices through a handler that
// flips one byte of the first emitted source in every response: the gate
// must report the kept bodies, and must pass the same traffic untampered.
func TestGateCatchesTamperedSource(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	w.warmup = 0
	in, err := generate(&w, 3, 2*keepEvery)
	if err != nil {
		t.Fatal(err)
	}
	honest := httptest.NewServer(srv.Handler())
	defer honest.Close()
	tampered := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i := bytes.Index(body, []byte(`"source": "`)); i >= 0 {
			body[i+len(`"source": "`)] ^= 1
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	}))
	defer tampered.Close()

	for _, tc := range []struct {
		url  string
		want bool
	}{{honest.URL, false}, {tampered.URL, true}} {
		loop := closedLoop(tc.url, in, 0, len(in.ops), time.Time{}, []*http.Client{newClient()}, keepEvery)
		if len(loop.kept) != 2 {
			t.Fatalf("kept %d bodies, want 2", len(loop.kept))
		}
		bad := gate(in, loop.kept)
		if got := len(bad) > 0; got != tc.want {
			t.Errorf("%s: gate reported %q, want mismatches: %v", tc.url, bad, tc.want)
		}
	}
}

func TestHasError(t *testing.T) {
	for body, want := range map[string]bool{
		`{"results": [{"label": "printf"}]}`:                      false,
		`{"error": "program does not parse"}`:                     true,
		`{"results": [{"label": "x", "error": "no printf"}]}`:     true,
		`{"source": "printf(\"error\": 1)"}`:                      false,
		`{"source": "a\\", "error": "ends in a backslash"}`:       true,
		`{"source": "\"error\":", "label": "escaped only"}`:       false,
		`{"\"error": "a key that is not error"}`:                  false,
		`{"source": "int x;\n", "variant_counts": {"main": 1}}`:   false,
		`{"label": "line:3", "mode": "mono", "error": "no stmt"}`: true,
	} {
		if got := hasError([]byte(body)); got != want {
			t.Errorf("hasError(%s) = %v, want %v", body, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestFasterHalf: the ops that completed in the slower half of the slices
// are left out of the end-to-end times, and so is those slices' length.
func TestFasterHalf(t *testing.T) {
	var rs []opResult
	for s, ops := range []int{3, 1, 3, 1} {
		lat := time.Millisecond
		if ops == 1 {
			lat = 100 * time.Millisecond
		}
		for k := 0; k < ops; k++ {
			rs = append(rs, opResult{done: time.Duration(s)*time.Second + time.Duration(k+1)*time.Millisecond, latency: lat})
		}
	}
	lat, secs := fasterHalf(rs, 4*time.Second)
	if want := []float64{1, 1, 1, 1, 1, 1}; !reflect.DeepEqual(lat, want) || secs != 2 {
		t.Errorf("fasterHalf = %v over %vs, want %v over 2s", lat, secs, want)
	}
	if lat, secs := fasterHalf(rs[:2], 300*time.Millisecond); len(lat) != 2 || secs != 0.3 {
		t.Errorf("a window shorter than a slice: %v over %vs, want both ops over 0.3s", lat, secs)
	}
}

// TestGenerateIsDeterministic: equal seeds give equal inputs, a prefix
// stays a prefix, and other seeds give other inputs.
func TestGenerateIsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := generate(w, 5, 120)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 5, 120)
		c, _ := generate(w, 6, 120)
		if a.hash() != b.hash() || a.hash() == c.hash() {
			t.Errorf("%s: seed 5 hashes %s and %s, seed 6 %s", w.name, a.hash(), b.hash(), c.hash())
		}
		short, _ := generate(w, 5, 60)
		long := &inputs{sources: a.sources[:len(short.sources)], ops: a.ops[:60]}
		if short.hash() != long.hash() {
			t.Errorf("%s: the first 60 of 120 ops differ from 60 generated alone", w.name)
		}
	}
}
