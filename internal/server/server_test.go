package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"specslice"
	"specslice/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSlice(t *testing.T, url string, req SliceRequest) (int, SliceResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/slice", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/slice: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out SliceResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, buf.String())
		}
	}
	return resp.StatusCode, out, buf.String()
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestSliceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := SliceRequest{
		Program: workload.Fig1Source,
		Criteria: []CriterionRequest{
			{Kind: "printf", Proc: "main"},
			{Kind: "printf", Proc: "main", Mode: "mono", Label: "baseline"},
		},
	}
	status, resp, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if len(resp.ProgramKey) != 64 {
		t.Errorf("program key %q is not a sha256 hex digest", resp.ProgramKey)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	poly := resp.Results[0]
	if poly.Error != "" || poly.Mode != "poly" || poly.Label != "printf:main" {
		t.Errorf("poly result = %+v", poly)
	}
	// Fig. 1's p specializes into two versions under the paper's slice.
	if poly.VariantCounts["p"] != 2 {
		t.Errorf("poly variants of p = %d, want 2", poly.VariantCounts["p"])
	}
	if !strings.Contains(poly.Source, "main()") {
		t.Errorf("poly source missing main:\n%s", poly.Source)
	}
	mono := resp.Results[1]
	if mono.Error != "" || mono.Mode != "mono" || mono.Label != "baseline" {
		t.Errorf("mono result = %+v", mono)
	}
	if mono.VariantCounts["p"] != 1 {
		t.Errorf("mono variants of p = %d, want 1", mono.VariantCounts["p"])
	}
	if resp.Stats.Requests != 2 || resp.Stats.Failed != 0 {
		t.Errorf("batch stats = %+v", resp.Stats)
	}
	if resp.Stats.Phases.Total <= 0 {
		t.Errorf("phase timings not reported: %+v", resp.Stats.Phases)
	}

	// A normalization-equivalent program (different whitespace/comments)
	// must hit the same cache entry.
	req2 := SliceRequest{
		Program:  "// reformatted\n" + strings.ReplaceAll(workload.Fig1Source, "\n", "\n "),
		Criteria: []CriterionRequest{{Kind: "printf"}},
		NoSource: true,
	}
	status, resp2, raw := postSlice(t, ts.URL, req2)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !resp2.CacheHit {
		t.Error("normalization-equivalent program missed the cache")
	}
	if resp2.ProgramKey != resp.ProgramKey {
		t.Errorf("content keys differ: %s vs %s", resp2.ProgramKey, resp.ProgramKey)
	}
	if resp2.Results[0].Source != "" {
		t.Error("no_source request returned source text")
	}
}

// TestSliceLineCriterionCanonical: line criteria resolve against the
// normalized program's numbering, so a cache hit from a reformatted but
// normalization-equivalent request returns the same slice as the request
// that populated the cache — the first requester's formatting must not
// leak into later line lookups.
func TestSliceLineCriterionCanonical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	norm := specslice.MustParse(workload.Fig1Source).Source()
	line := 0
	for i, l := range strings.Split(norm, "\n") {
		if strings.Contains(l, "g2 = 100") {
			line = i + 1
			break
		}
	}
	if line == 0 {
		t.Fatal("g2 = 100 not found in normalized Fig1")
	}

	crit := []CriterionRequest{{Kind: "line", Line: line}}
	// Shift every raw line: comments + extra blank lines. Normalized text
	// (and hence the content key and line numbering) is unchanged.
	variants := []string{
		workload.Fig1Source,
		"// leading comment\n\n\n" + workload.Fig1Source,
	}
	var sources []string
	for i, src := range variants {
		status, resp, raw := postSlice(t, ts.URL, SliceRequest{Program: src, Criteria: crit})
		if status != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, status, raw)
		}
		if resp.Results[0].Error != "" {
			t.Fatalf("variant %d: line %d did not resolve: %s", i, line, resp.Results[0].Error)
		}
		if i > 0 && !resp.CacheHit {
			t.Errorf("variant %d missed the cache", i)
		}
		sources = append(sources, resp.Results[0].Source)
	}
	if sources[0] != sources[1] {
		t.Errorf("equivalent requests sliced different lines:\n--- a ---\n%s\n--- b ---\n%s", sources[0], sources[1])
	}
	if !strings.Contains(sources[0], "g2 = 100") {
		t.Errorf("slice of the g2 = 100 line lost the criterion statement:\n%s", sources[0])
	}
}

func TestSliceFeatureRemoval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SliceRequest{
		Program:  workload.Fig16Source,
		Criteria: []CriterionRequest{{Kind: "stmt", Proc: "main", Stmt: "prod = 1", Mode: "feature"}},
	}
	status, resp, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	res := resp.Results[0]
	if res.Error != "" {
		t.Fatalf("feature removal failed: %s", res.Error)
	}
	if strings.Contains(res.Source, "prod") {
		t.Errorf("feature removal kept prod:\n%s", res.Source)
	}
}

func TestSlicePerRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SliceRequest{
		Program: workload.Fig1Source,
		Criteria: []CriterionRequest{
			{Kind: "printf", Proc: "main"},
			{Kind: "printf", Proc: "no_such_proc"},
			{Kind: "line", Line: 9999},
		},
	}
	status, resp, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("valid criterion failed: %s", resp.Results[0].Error)
	}
	for i := 1; i <= 2; i++ {
		if resp.Results[i].Error == "" {
			t.Errorf("result %d: want a resolution error", i)
		}
	}
	if resp.Stats.Failed != 2 {
		t.Errorf("batch failed = %d, want 2", resp.Stats.Failed)
	}
}

func TestSliceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCriteria: 2})
	crit := []CriterionRequest{{Kind: "printf"}}
	cases := []struct {
		name   string
		req    SliceRequest
		status int
	}{
		{"empty program", SliceRequest{Criteria: crit}, http.StatusBadRequest},
		{"no criteria", SliceRequest{Program: workload.Fig1Source}, http.StatusBadRequest},
		{"too many criteria", SliceRequest{Program: workload.Fig1Source,
			Criteria: []CriterionRequest{{Kind: "printf"}, {Kind: "printf"}, {Kind: "printf"}}}, http.StatusBadRequest},
		{"bad kind", SliceRequest{Program: workload.Fig1Source,
			Criteria: []CriterionRequest{{Kind: "vertex"}}}, http.StatusBadRequest},
		{"bad mode", SliceRequest{Program: workload.Fig1Source,
			Criteria: []CriterionRequest{{Kind: "printf", Mode: "quantum"}}}, http.StatusBadRequest},
		{"bad line", SliceRequest{Program: workload.Fig1Source,
			Criteria: []CriterionRequest{{Kind: "line"}}}, http.StatusBadRequest},
		// Line numbering is program-wide; a proc scope would be silently
		// ignored, so the server must refuse it instead.
		{"line with proc", SliceRequest{Program: workload.Fig1Source,
			Criteria: []CriterionRequest{{Kind: "line", Line: 3, Proc: "main"}}}, http.StatusBadRequest},
		{"stmt without proc", SliceRequest{Program: workload.Fig1Source,
			Criteria: []CriterionRequest{{Kind: "stmt", Stmt: "g1 = a"}}}, http.StatusBadRequest},
		{"negative workers", SliceRequest{Program: workload.Fig1Source, Workers: -1,
			Criteria: crit}, http.StatusBadRequest},
		{"parse error", SliceRequest{Program: "int main( {", Criteria: crit}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postSlice(t, ts.URL, tc.req)
			if status != tc.status {
				t.Errorf("status %d, want %d: %s", status, tc.status, raw)
			}
		})
	}

	t.Run("malformed json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/slice", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
	// Exactly one JSON object per request: anything after it but
	// whitespace is a 400, however valid the object itself is.
	valid, err := json.Marshal(SliceRequest{Program: workload.Fig1Source, Criteria: crit})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, trailer string
		status        int
	}{
		{"trailing garbage", " garbage", http.StatusBadRequest},
		{"second object", string(valid), http.StatusBadRequest},
		{"stray brace", "}", http.StatusBadRequest},
		{"trailing newline", "\n", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/slice", "application/json", strings.NewReader(string(valid)+tc.trailer))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
		})
	}
	t.Run("trailing whitespace over the cap", func(t *testing.T) {
		body := string(valid) + strings.Repeat(" ", 3<<20) // past the 2 MiB + envelope cap
		resp, err := http.Post(ts.URL+"/v1/slice", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		_, ts := newTestServer(t, Config{MaxProgramBytes: 256})
		status, _, raw := postSlice(t, ts.URL, SliceRequest{Program: workload.Fig16Source, Criteria: crit})
		if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 400 or 413: %s", status, raw)
		}
	})
	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/slice")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status %d, want 405", resp.StatusCode)
		}
	})
}

// TestSliceDedupResponseAttribution: concurrent requests for one uncached
// version share a single build; only the request whose closure did the
// work may report advanced, every waiter reports deduped.
// Regression test: waiters used to echo the builder's path, so several
// responses claimed the same advance.
func TestSliceDedupResponseAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}}

	// Warm v1 so v2's one build is an advance along the version chain.
	if status, _, raw := postSlice(t, ts.URL, SliceRequest{Program: workload.Fig1Source, Criteria: crit}); status != http.StatusOK {
		t.Fatalf("warm v1: status %d: %s", status, raw)
	}
	v2 := strings.Replace(workload.Fig1Source, "g2 = 100", "g2 = 101", 1)
	if v2 == workload.Fig1Source {
		t.Fatal("edit did not change the source")
	}

	const clients = 16
	var wg sync.WaitGroup
	responses := make([]SliceResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SliceRequest{Program: v2, Criteria: crit, NoSource: true})
			resp, err := http.Post(ts.URL+"/v1/slice", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&responses[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	var advanced, deduped, hits int64
	for i, r := range responses {
		if r.Deduped && (r.Advanced || r.CacheHit) {
			t.Errorf("client %d: deduped response claims the builder's work: %+v", i, r)
		}
		if r.CacheHit && r.Advanced {
			t.Errorf("client %d: RAM hit claims a build path: %+v", i, r)
		}
		if r.Advanced {
			advanced++
		}
		if r.Deduped {
			deduped++
		}
		if r.CacheHit {
			hits++
		}
	}
	// Exactly one of the clients built v2 (singleflight), and its build
	// advanced the warm v1 engine; everyone else either joined that build
	// (deduped) or arrived after it landed in the LRU (hit). The split
	// between waiters and hits is timing, the total is not.
	if advanced != 1 {
		t.Errorf("%d responses claim the advance, want exactly 1", advanced)
	}
	if advanced+deduped+hits != clients {
		t.Errorf("responses unaccounted for: advanced=%d deduped=%d hits=%d of %d",
			advanced, deduped, hits, clients)
	}
	st := getStats(t, ts.URL)
	if deduped != st.Cache.Deduped {
		t.Errorf("%d deduped responses but the cache counted %d", deduped, st.Cache.Deduped)
	}
}

// TestSliceMaxSizeCriteriaBatch: the request-size cap must admit a
// maximum-size valid batch — MaxCriteria stmt criteria with long texts
// and labels. Regression test: the cap was sized from MaxProgramBytes
// alone, so full-width criterion batches drew a spurious 413.
func TestSliceMaxSizeCriteriaBatch(t *testing.T) {
	const maxCriteria = 256
	_, ts := newTestServer(t, Config{MaxProgramBytes: 2048, MaxCriteria: maxCriteria})
	crit := make([]CriterionRequest, maxCriteria)
	for i := range crit {
		crit[i] = CriterionRequest{
			Kind:  "stmt",
			Proc:  "main",
			Stmt:  "g2 = 100",
			Label: fmt.Sprintf("%0300d", i), // long client labels are legal
		}
	}
	req := SliceRequest{Program: workload.Fig1Source, Criteria: crit, NoSource: true}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// The regression condition: this valid request is bigger than the old
	// cap of 2*MaxProgramBytes + 64 KiB.
	if oldCap := int64(2*2048 + 1<<16); int64(len(body)) <= oldCap {
		t.Fatalf("test body %d bytes does not exceed the old cap %d", len(body), oldCap)
	}
	status, resp, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", status, raw)
	}
	if len(resp.Results) != maxCriteria {
		t.Fatalf("got %d results, want %d", len(resp.Results), maxCriteria)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
	}
}

// TestWriteJSONEncodeFailureCounted: an encode failure after the status
// line is written cannot change the response any more, but it must not
// vanish either — it is logged and counted in the server stats.
// Regression test: the encoder's error was silently discarded.
func TestWriteJSONEncodeFailureCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// NaN has no JSON encoding, so this encode fails deterministically.
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]float64{"bad": math.NaN()})
	if st := getStats(t, ts.URL); st.ResponseEncodeErrors != 1 {
		t.Errorf("response_encode_errors = %d, want 1", st.ResponseEncodeErrors)
	}
	// A clean response does not move the counter.
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]int{"ok": 1})
	if st := getStats(t, ts.URL); st.ResponseEncodeErrors != 1 {
		t.Errorf("counter moved on a successful encode: %d", st.ResponseEncodeErrors)
	}
}

// failingWriter is a ResponseWriter whose body writes fail, as they do
// once the client has gone.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestSliceWriteFailureCounted: a slice response whose body write fails
// raises response_encode_errors by exactly 1, as a failed encode does: the
// client saw a truncated body.
func TestSliceWriteFailureCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, err := json.Marshal(SliceRequest{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "printf"}}})
	if err != nil {
		t.Fatal(err)
	}
	w := failingWriter{httptest.NewRecorder()}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/slice", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	if st := getStats(t, ts.URL); st.ResponseEncodeErrors != 1 {
		t.Errorf("response_encode_errors = %d, want 1", st.ResponseEncodeErrors)
	}
}

// rawPost sends a POST /v1/slice whose header declares declared bytes,
// then body, then closes its side of the connection, and returns the
// response status.
func rawPost(t *testing.T, baseURL string, declared int64, body []byte) int {
	t.Helper()
	addr := strings.TrimPrefix(baseURL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		fmt.Fprintf(conn, "POST /v1/slice HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, declared)
		conn.Write(body)
		conn.(*net.TCPConn).CloseWrite()
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHugeContentLength: a request declaring 1 TiB gets a 400 over a short
// body and a 413 over one past the envelope, and the declared length is
// never allocated: the short body costs the process less than the
// envelope.
func TestHugeContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const declared = 1 << 40
	envelope := int64(2<<20 + 256*maxCriterionWireBytes + 1<<16) // the defaults' cap
	valid, err := json.Marshal(SliceRequest{Program: workload.Fig1Source, Criteria: []CriterionRequest{{Kind: "printf"}}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status := rawPost(t, ts.URL, declared, valid)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Errorf("short body: status %d, want 400", status)
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc >= envelope {
		t.Errorf("short body: %d bytes allocated, envelope %d", alloc, envelope)
	}
	long := append(valid, bytes.Repeat([]byte(" "), int(envelope))...)
	if status := rawPost(t, ts.URL, declared, long); status != http.StatusRequestEntityTooLarge {
		t.Errorf("long body: status %d, want 413", status)
	}
}

// TestOverCapBodyStatus: a body past the envelope is a 413, unless the
// bytes before the cap already hold a malformed request, which is a 400 as
// when the body was decoded as it arrived.
func TestOverCapBodyStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxProgramBytes: 1024, MaxCriteria: 1})
	pad := strings.Repeat(" ", 80<<10) // past the 70 KiB envelope
	valid, err := json.Marshal(SliceRequest{Program: "int main() { return 0; }", Criteria: []CriterionRequest{{Kind: "printf"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed", "{nope" + pad, http.StatusBadRequest},
		{"unknown field", `{"bogus":1}` + pad, http.StatusBadRequest},
		{"data after", string(valid) + " x" + pad, http.StatusBadRequest},
		{"whitespace", string(valid) + pad, http.StatusRequestEntityTooLarge},
		{"long program", `{"program":"` + pad, http.StatusRequestEntityTooLarge},
		{"string after", string(valid) + ` "` + pad, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/slice", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// loadPrograms returns the mixed corpus the load test rotates through:
// the paper's figures plus two generated suites.
func loadPrograms() []string {
	return []string{
		workload.Fig1Source,
		workload.Fig2Source,
		workload.Fig16Source,
		workload.GenerateSource(workload.BenchConfig{
			Name: "load-a", Procs: 6, TargetVertices: 220, CallSites: 18, Slices: 4, Seed: 901,
		}),
		workload.GenerateSource(workload.BenchConfig{
			Name: "load-b", Procs: 9, TargetVertices: 320, CallSites: 26, Slices: 5, Seed: 902,
		}),
	}
}

// TestServerLoadConcurrent is the serving acceptance test: 64 concurrent
// clients, mixed programs and modes, several rounds. Run under -race. It
// asserts zero failed requests, consistent hit/miss accounting, and that
// warm cache hits dominate once every program has been built.
func TestServerLoadConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMaxEntries: 16})
	programs := loadPrograms()
	modes := []string{"poly", "mono", "weiser"}

	const (
		clients = 64
		rounds  = 4
	)
	var wg sync.WaitGroup
	errc := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := SliceRequest{
					Program: programs[(c+r)%len(programs)],
					Criteria: []CriterionRequest{
						{Kind: "printf", Mode: modes[c%len(modes)]},
						{Kind: "printf", Proc: "main"},
					},
					NoSource: c%2 == 0,
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/slice", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					continue
				}
				var out SliceResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: decode: %v", c, r, err)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d round %d: status %d", c, r, resp.StatusCode)
					continue
				}
				for _, res := range out.Results {
					if res.Error != "" {
						errc <- fmt.Errorf("client %d round %d: %s: %s", c, r, res.Label, res.Error)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	failed := 0
	for err := range errc {
		failed++
		t.Error(err)
	}
	if failed > 0 {
		t.Fatalf("%d failed requests, want 0", failed)
	}

	st := getStats(t, ts.URL)
	lookups := int64(clients * rounds)
	if st.Cache.Hits+st.Cache.Misses != lookups {
		t.Errorf("hits %d + misses %d != %d lookups", st.Cache.Hits, st.Cache.Misses, lookups)
	}
	if st.Cache.Builds+st.Cache.BuildErrors+st.Cache.Deduped != st.Cache.Misses {
		t.Errorf("builds %d + errors %d + deduped %d != misses %d",
			st.Cache.Builds, st.Cache.BuildErrors, st.Cache.Deduped, st.Cache.Misses)
	}
	if st.Cache.BuildErrors != 0 {
		t.Errorf("%d build errors", st.Cache.BuildErrors)
	}
	if st.Cache.Builds != int64(len(programs)) {
		t.Errorf("builds = %d, want %d (one per distinct program)", st.Cache.Builds, len(programs))
	}
	if st.Cache.Advances+st.Cache.ColdBuilds != st.Cache.Builds {
		t.Errorf("build accounting broken: advances %d + cold %d != builds %d",
			st.Cache.Advances, st.Cache.ColdBuilds, st.Cache.Builds)
	}
	// After the first round every program is warm: hits must dominate.
	if st.Cache.Hits <= st.Cache.Misses {
		t.Errorf("hits %d do not dominate misses %d", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.InFlight != 0 {
		t.Errorf("in-flight builds = %d after drain", st.Cache.InFlight)
	}
	if st.Requests != lookups*2 || st.Failed != 0 {
		t.Errorf("server requests %d (want %d), failed %d (want 0)", st.Requests, lookups*2, st.Failed)
	}
	if st.Batches != lookups {
		t.Errorf("batches %d, want %d", st.Batches, lookups)
	}
	if st.Phases.Total <= 0 || st.Phases.Prestar <= 0 {
		t.Errorf("aggregate phases not accumulated: %+v", st.Phases)
	}

	// One more sequential pass: everything must now be served warm.
	for _, src := range programs {
		status, resp, raw := postSlice(t, ts.URL, SliceRequest{
			Program:  src,
			Criteria: []CriterionRequest{{Kind: "printf"}},
			NoSource: true,
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		if !resp.CacheHit {
			t.Errorf("program %s missed the warm cache", resp.ProgramKey[:8])
		}
	}
}
