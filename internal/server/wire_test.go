package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"specslice"
	"specslice/internal/lang"
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

// esc spells the JSON escape of the UTF-16 code unit hex.
func esc(hex string) string { return `\` + "u" + hex }

// wireSeedBodies returns the request bodies the codec tests start from:
// the 8 Siemens bodies, the bodies the server and router tests send, and
// hand-written edge cases of encoding/json's decoding.
func wireSeedBodies(tb testing.TB) [][]byte {
	bodies := coldMissBodies(tb)
	crit := []CriterionRequest{{Kind: "printf"}}
	for _, req := range []SliceRequest{
		{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "printf", Proc: "main"}}, NoSource: true},
		{Criteria: crit},
		{Program: workload.Fig1Source},
		{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "printf"}, {Kind: "printf"}, {Kind: "printf"}}},
		{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "vertex"}}},
		{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "printf", Mode: "quantum"}}},
		{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "line", Line: 3, Proc: "main"}}},
		{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "stmt", Stmt: "g1 = a"}}},
		{Program: workload.Fig1Source, Workers: -1, Criteria: crit},
		{Program: "int main( {", Criteria: crit},
		{Program: workload.Fig2Source, Workers: 2, Criteria: []CriterionRequest{
			{Kind: "printf", Mode: "mono"}, {Kind: "line", Line: 7, Mode: "feature", Label: "x"},
			{Kind: "stmt", Proc: "main", Stmt: "g2 = 100", Label: strings.Repeat("7", 300)}}},
		{Program: "\nint g;\n\nvoid ident0(int a, int b) {\n  g = a + b + 0;\n}\n\nint main() {\n  ident0(1, 2);\n  printf(\"%d\", g);\n  return 0;\n}\n",
			Criteria: []CriterionRequest{{Kind: "printf"}, {Kind: "printf", Proc: "main"}, {Kind: "printf", Mode: "mono"}}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	valid := string(bodies[0])
	for _, s := range []string{
		// Keys: case folding (U+212A KELVIN SIGN folds to k, U+017F LONG S
		// to s), escapes, duplicates, and criteria decoded into what is there.
		`{"PROGRAM":"int main(){}","Criteria":[{"KIND":"printf","Proc":"main"}],"No_Source":true,"WORKERS":3}`,
		`{"` + esc("0070") + `rogram":"x","crit` + esc("0065") + `ria":[{"kin` + esc("0044") + `":"printf"}]}`,
		"{\"criteria\":[{\"\xe2\x84\xaaind\":\"stmt\",\"\xc5\xbftmt\":\"s\"}],\"no_\xc5\xbfource\":false}",
		`{"program":"a","program":"b","criteria":[{"kind":"printf","proc":"p"},{"kind":"line","line":2}],"criteria":[{"kind":"stmt"}]}`,
		`{"criteria":[{"kind":"a"},{"kind":"b"},{"kind":"c"}],"criteria":[{"proc":"x"}],"criteria":[{"mode":"m"},{"label":"l"}]}`,
		`{"criteria":[{"kind":"a"},{"kind":"b"}],"criteria":[],"criteria":[{"proc":"x"},{"mode":"y"}]}`,
		`{"criteria":[{"kind":"a"}],"criteria":null}`,
		`{"criteria":[null,{"kind":"a"},null]}`,
		`{"criteria":[{"kind":"a","kind":null,"line":4,"line":null}],"program":"p","program":null,"workers":1,"workers":null,"no_source":true,"no_source":null}`,
		// The whole body null, scalars and arrays.
		`null`, " \t\r\nnull\n", `null x`, `nullx`, `nul`, `[]`, `"x"`, `12`, `true`, `{}`, ``, `   `,
		// Integers.
		`{"criteria":[{"line":1e2}]}`, `{"criteria":[{"line":1.0}]}`, `{"criteria":[{"line":9223372036854775808}]}`,
		`{"criteria":[{"line":-9223372036854775808}]}`, `{"criteria":[{"line":-0}]}`, `{"criteria":[{"line":01}]}`,
		`{"criteria":[{"line":-}]}`, `{"criteria":[{"line":"5"}]}`, `{"workers":1E+2}`, `{"workers":2.}`, `{"workers":-1}`,
		// Strings: surrogates, invalid UTF-8, control characters, escapes.
		`{"program":"a` + esc("d800") + `b` + esc("dc00") + `c` + esc("d83d") + esc("de00") + `d` + esc("d800") + esc("0041") + `"}`,
		`{"program":"` + esc("d83d") + esc("d83d") + esc("de00") + esc("DBFF") + `"}`,
		"{\"program\":\"a\xffb\xe2\x80c\xed\xa0\x80d\xf0\x9f\x98\x80\x7f\"}",
		"{\"program\":\"a\x01b\"}", "{\"program\":\"a\tb\"}",
		`{"program":"a\/b\"c\\d\b\f\n\r\t` + esc("0000") + esc("00e9") + `"}`,
		`{"program":"\x"}`, `{"program":"` + esc("12g4") + `"}`, `{"program":"abc`,
		// Types, unknown fields and syntax.
		`{"workers":"2"}`, `{"no_source":1}`, `{"criteria":{}}`, `{"criteria":"x"}`, `{"criteria":[1]}`,
		`{"program":true}`, `{"unknown":1}`, `{"criteria":[{"kind":"printf","extra":[1,{"a":null}]}]}`,
		`{nope`, `{"program":"x",}`, `{"program" "x"}`, `{,}`, `{"a":[1,]}`, "\xef\xbb\xbf{}",
		`{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		// Data after the object.
		valid + ` garbage`, valid + `}`, valid + valid, valid + "\n", valid + ` "abc`, valid + ` "abc"`,
		valid + ` 12`, valid + ` [`, valid + ` tru`, valid + ` true`, valid + ` ]`, valid + ` ,`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// errCut stands for the read error that cuts a body short, such as the
// *http.MaxBytesError of a capped body.
var errCut = errors.New("body cut short")

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errCut }

// checkDecodeAgrees fails unless DecodeSliceRequest and the encoding/json
// reference agree on body: both reject it, or both accept it with
// deep-equal requests. It also holds the worker's decision on a body cut
// short after these bytes to the reference's: the reference, reading the
// bytes as they arrive, meets the read error exactly when the one-pass
// decode of the prefix finds no error before the cut.
func checkDecodeAgrees(t *testing.T, body []byte) {
	got, err := DecodeSliceRequest(body)
	want, werr := referenceDecodeSliceRequest(bytes.NewReader(body))
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q: error %v, reference error %v", body, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
	_, perr := decodeSliceRequest(body, true)
	_, rerr := referenceDecodeSliceRequest(io.MultiReader(bytes.NewReader(body), errReader{}))
	cut := perr == nil || perr == io.EOF || perr == io.ErrUnexpectedEOF
	if cut != errors.Is(rerr, errCut) {
		t.Fatalf("body %q cut short: prefix error %v, reference error %v", body, perr, rerr)
	}
}

// FuzzDecodeSliceRequest: on any bytes, the one-pass decoder and the
// encoding/json reference agree on whether there is an error and on the
// decoded request, and on a body cut short after those bytes. Plain go
// test runs it on the seeds.
func FuzzDecodeSliceRequest(f *testing.F) {
	for _, body := range wireSeedBodies(f) {
		f.Add(body)
	}
	f.Fuzz(checkDecodeAgrees)
}

// TestSliceResponseWireIdentity: the slice response writer emits the bytes
// the indenting encoding/json encoder wrote, for every response to the
// criteria of TestSliceCorpusDigest on the 8 Siemens suites, served
// through the handler, and for 1,000 random responses whose strings hold
// HTML characters, control bytes, line separators and invalid UTF-8.
func TestSliceResponseWireIdentity(t *testing.T) {
	s, err := New(Config{MaxCriteria: 1024})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, cfg := range workload.SmallBenchmarks() {
		src := lang.Print(workload.Generate(cfg))
		prog, err := specslice.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var crit []CriterionRequest
		for _, mode := range []string{"poly", "mono"} {
			for _, proc := range prog.ProcNames() {
				crit = append(crit, CriterionRequest{Kind: "printf", Proc: proc, Mode: mode})
			}
			for line := 1; line <= strings.Count(src, "\n")+1; line += 4 {
				crit = append(crit, CriterionRequest{Kind: "line", Line: line, Mode: mode})
			}
		}
		body, err := json.Marshal(SliceRequest{Program: src, Criteria: crit})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/slice", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", cfg.Name, rec.Code, rec.Body)
		}
		got := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", cfg.Name, cl, len(got))
		}
		var resp SliceResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(crit) {
			t.Fatalf("%s: %d results for %d criteria", cfg.Name, len(resp.Results), len(crit))
		}
		if want := referenceSliceResponse(t, &resp); !bytes.Equal(got, want) {
			t.Fatalf("%s: response differs from encoding/json's:\n got %s\nwant %s", cfg.Name, got, want)
		}
	}

	r := rand.New(rand.NewSource(28))
	for i := 0; i < 1000; i++ {
		var resp SliceResponse
		tricky := randomFill(r, reflect.ValueOf(&resp).Elem())
		got := appendSliceResponse(nil, &resp)
		if want := referenceSliceResponse(t, &resp); !bytes.Equal(got, want) {
			t.Fatalf("random response %d differs from encoding/json's:\n got %q\nwant %q", i, got, want)
		}
		if size := sliceResponseSize(&resp); !tricky && len(got) > size {
			t.Fatalf("random response %d: %d bytes, sized for %d", i, len(got), size)
		}
	}
}

// wirePieces are the fragments random response strings are made of.
var wirePieces = []string{
	"a", "main", "<", ">", "&", `"`, `\`, "/", "'", "\n", "\t", "\r", "\b", "\f",
	"\x00", "\x1f", "\x7f", "\xc3\xa9", "\xf0\x9f\x98\x80", " ",
}

// wireTrickyPieces have escapes longer than sliceResponseSize counts: the
// line and paragraph separators, and invalid UTF-8.
var wireTrickyPieces = []string{"\xe2\x80\xa8", "\xe2\x80\xa9", "\xff", "\xe2\x80", "\xed\xa0\x80"}

// randomFill sets v, and every field, element and entry in it, to random
// values: empty and zero ones often, so omitempty fields come and go. It
// reports whether a string got a piece of wireTrickyPieces.
func randomFill(r *rand.Rand, v reflect.Value) (tricky bool) {
	text := func() string {
		if r.Intn(4) == 0 {
			return ""
		}
		var sb strings.Builder
		for n := r.Intn(8); n >= 0; n-- {
			if r.Intn(10) == 0 {
				tricky = true
				sb.WriteString(wireTrickyPieces[r.Intn(len(wireTrickyPieces))])
			} else {
				sb.WriteString(wirePieces[r.Intn(len(wirePieces))])
			}
		}
		return sb.String()
	}
	integer := func() int64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.MaxInt64 - r.Int63n(2)
		case 2:
			return math.MinInt64 + r.Int63n(2)
		case 3:
			return -r.Int63n(1000)
		}
		return r.Int63n(1 << 40)
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(text())
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(integer())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			tricky = randomFill(r, v.Field(i)) || tricky
		}
	case reflect.Slice:
		switch r.Intn(5) {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + r.Intn(3)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				tricky = randomFill(r, v.Index(i)) || tricky
			}
		}
	case reflect.Map:
		switch r.Intn(4) {
		case 0:
			v.SetZero()
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for n := 1 + r.Intn(5); n > 0; n-- {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				tricky = randomFill(r, k) || tricky
				tricky = randomFill(r, e) || tricky
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic("randomFill: no case for " + v.Type().String())
	}
	return tricky
}
