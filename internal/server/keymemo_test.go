package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"specslice"
	"specslice/internal/workload"
)

// resultsJSON renders a response's results without their wall-clock
// durations — the part of a response the byte-identity contract covers.
func resultsJSON(t *testing.T, resp SliceResponse) []byte {
	t.Helper()
	res := append([]SliceResult(nil), resp.Results...)
	for i := range res {
		res[i].DurationNS = 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// formatVariants returns normalization-equivalent spellings of src: the
// text itself, a leading comment, and re-indented lines. Each has its own
// raw digest but the same ContentKey.
func formatVariants(src string) []string {
	return []string{
		src,
		"// variant\n\n" + src,
		strings.ReplaceAll(src, "\n", "\n  "),
	}
}

// TestKeyMemoVariantsShareEngine: whitespace and comment variants of one
// program are distinct memo entries but one ContentKey, so they share one
// engine and report one program_key.
func TestKeyMemoVariantsShareEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}}
	var key string
	for round := 0; round < 2; round++ {
		for i, src := range formatVariants(workload.Fig1Source) {
			status, resp, raw := postSlice(t, ts.URL, SliceRequest{Program: src, Criteria: crit})
			if status != http.StatusOK {
				t.Fatalf("round %d variant %d: status %d: %s", round, i, status, raw)
			}
			if key == "" {
				key = resp.ProgramKey
			} else if resp.ProgramKey != key {
				t.Errorf("round %d variant %d: program_key %s, want %s", round, i, resp.ProgramKey, key)
			}
		}
		st := getStats(t, ts.URL)
		if want := int64(round * 3); st.KeyMemoHits != want {
			t.Errorf("after round %d: key_memo_hits = %d, want %d", round, st.KeyMemoHits, want)
		}
	}
	st := getStats(t, ts.URL)
	if st.Cache.Builds != 1 || st.Cache.Entries != 1 || st.Cache.Hits != 5 {
		t.Errorf("cache builds=%d entries=%d hits=%d, want 1/1/5", st.Cache.Builds, st.Cache.Entries, st.Cache.Hits)
	}
}

// TestKeyMemoRepeatedTextMatchesParsed: a repeated text takes the memo path
// and returns exactly the results of the parsed request before it.
func TestKeyMemoRepeatedTextMatchesParsed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SliceRequest{Program: workload.Fig2Source, Criteria: []CriterionRequest{
		{Kind: "printf"},
		{Kind: "printf", Proc: "main", Mode: "mono"},
	}}
	status, parsed, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if st := getStats(t, ts.URL); st.KeyMemoHits != 0 {
		t.Fatalf("first send counted %d memo hits", st.KeyMemoHits)
	}
	status, memo, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if st := getStats(t, ts.URL); st.KeyMemoHits != 1 {
		t.Errorf("key_memo_hits = %d after a repeat, want 1", st.KeyMemoHits)
	}
	if !memo.CacheHit || memo.ProgramKey != parsed.ProgramKey {
		t.Errorf("memo path: hit=%v key %s, want a hit on %s", memo.CacheHit, memo.ProgramKey, parsed.ProgramKey)
	}
	if a, b := resultsJSON(t, parsed), resultsJSON(t, memo); !bytes.Equal(a, b) {
		t.Errorf("memo-path results differ from parsed:\n%s\n%s", a, b)
	}
}

// TestKeyMemoEvictedEngineRebuilds: a memo hit whose engine was evicted
// parses the raw text lazily and rebuilds from its canonical source, so the
// slice is byte-identical — including a line criterion, which resolves
// against the normalized numbering even though the raw text is a
// reformatted variant.
func TestKeyMemoEvictedEngineRebuilds(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMaxEntries: 1})
	norm := specslice.MustParse(workload.Fig1Source).Source()
	line := 0
	for i, l := range strings.Split(norm, "\n") {
		if strings.Contains(l, "g2 = 100") {
			line = i + 1
		}
	}
	req := SliceRequest{
		Program:  formatVariants(workload.Fig1Source)[1],
		Criteria: []CriterionRequest{{Kind: "line", Line: line}, {Kind: "printf"}},
	}
	status, first, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if first.Results[0].Error != "" || !strings.Contains(first.Results[0].Source, "g2 = 100") {
		t.Fatalf("line criterion did not slice g2 = 100: %+v", first.Results[0])
	}
	// Evict it with another program.
	if status, _, raw := postSlice(t, ts.URL, SliceRequest{Program: workload.Fig2Source, Criteria: []CriterionRequest{{Kind: "printf"}}}); status != http.StatusOK {
		t.Fatalf("evictor: status %d: %s", status, raw)
	}
	status, again, raw := postSlice(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	st := getStats(t, ts.URL)
	if st.KeyMemoHits != 1 || st.Cache.Evictions < 1 || st.Cache.ColdBuilds != 3 {
		t.Errorf("key_memo_hits=%d evictions=%d cold_builds=%d, want 1/>=1/3",
			st.KeyMemoHits, st.Cache.Evictions, st.Cache.ColdBuilds)
	}
	if again.CacheHit || again.ProgramKey != first.ProgramKey {
		t.Errorf("rebuild: hit=%v key %s, want a miss on %s", again.CacheHit, again.ProgramKey, first.ProgramKey)
	}
	if a, b := resultsJSON(t, first), resultsJSON(t, again); !bytes.Equal(a, b) {
		t.Errorf("rebuilt slice differs:\n%s\n%s", a, b)
	}
}

// TestKeyMemoParseErrorNotMemoized: only a successful parse is memoized, so
// an unparseable text draws its 422 on every send.
func TestKeyMemoParseErrorNotMemoized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SliceRequest{Program: "int main( {", Criteria: []CriterionRequest{{Kind: "printf"}}}
	for i := 0; i < 3; i++ {
		if status, _, raw := postSlice(t, ts.URL, req); status != http.StatusUnprocessableEntity {
			t.Fatalf("send %d: status %d, want 422: %s", i, status, raw)
		}
	}
	if st := getStats(t, ts.URL); st.KeyMemoHits != 0 {
		t.Errorf("key_memo_hits = %d, want 0", st.KeyMemoHits)
	}
	if n := len(s.memo.m); n != 0 {
		t.Errorf("memo holds %d entries after parse errors only", n)
	}
}

// TestKeyMemoBounded: many distinct texts never grow the memo past its
// constant capacity, and it keeps answering after a reset.
func TestKeyMemoBounded(t *testing.T) {
	var km KeyMemo
	src := func(i int) string {
		return fmt.Sprintf("int main() {\n  printf(\"%%d\", %d);\n  return 0;\n}\n", i)
	}
	for i := 0; i < 2*keyMemoCapacity+10; i++ {
		if _, _, err := km.Keys(src(i)); err != nil {
			t.Fatal(err)
		}
		if n := len(km.m); n > keyMemoCapacity {
			t.Fatalf("after %d texts the memo holds %d entries, capacity %d", i+1, n, keyMemoCapacity)
		}
	}
	if km.Hits() != 0 {
		t.Errorf("distinct texts counted %d hits", km.Hits())
	}
	last := src(2*keyMemoCapacity + 9)
	keys, prog, err := km.Keys(last)
	if err != nil || prog != nil || km.Hits() != 1 {
		t.Fatalf("repeat of the newest text: err=%v parsed=%v hits=%d, want a memo hit", err, prog != nil, km.Hits())
	}
	fresh := specslice.MustParse(last)
	if keys.Content != ContentKey(fresh.Source()) || keys.Family != FamilyKey(fresh.ProcNames()) {
		t.Errorf("memoized keys %+v disagree with a fresh parse", keys)
	}
}

// TestKeyMemoConcurrentVariantsAndEvictions: 32 clients mix formatting
// variants of several programs through a cache too small to hold them, so
// memo hits meet evicted engines, in-flight builds and warm entries at
// once. Under -race: every response matches a serial reference, and the
// cache-stats identities hold.
func TestKeyMemoConcurrentVariantsAndEvictions(t *testing.T) {
	programs := loadPrograms()[:4]
	crit := []CriterionRequest{{Kind: "printf"}, {Kind: "printf", Proc: "main", Mode: "weiser"}}

	// Serial reference, from a server that parses every text once.
	_, ref := newTestServer(t, Config{})
	wantKey := make([]string, len(programs))
	wantResults := make([][]byte, len(programs))
	for i, src := range programs {
		status, resp, raw := postSlice(t, ref.URL, SliceRequest{Program: src, Criteria: crit})
		if status != http.StatusOK {
			t.Fatalf("reference %d: status %d: %s", i, status, raw)
		}
		wantKey[i], wantResults[i] = resp.ProgramKey, resultsJSON(t, resp)
	}

	_, ts := newTestServer(t, Config{CacheMaxEntries: 2})
	const (
		clients = 32
		rounds  = 6
	)
	var wg sync.WaitGroup
	errc := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p := (c + r) % len(programs)
				src := formatVariants(programs[p])[(c/len(programs)+r)%3]
				body, _ := json.Marshal(SliceRequest{Program: src, Criteria: crit})
				resp, err := http.Post(ts.URL+"/v1/slice", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					continue
				}
				var out SliceResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch {
				case err != nil:
					errc <- fmt.Errorf("client %d round %d: decode: %v", c, r, err)
				case resp.StatusCode != http.StatusOK:
					errc <- fmt.Errorf("client %d round %d: status %d", c, r, resp.StatusCode)
				case out.ProgramKey != wantKey[p]:
					errc <- fmt.Errorf("client %d round %d: program_key %s, want %s", c, r, out.ProgramKey, wantKey[p])
				case !bytes.Equal(resultsJSON(t, out), wantResults[p]):
					errc <- fmt.Errorf("client %d round %d: results differ from the reference", c, r)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := getStats(t, ts.URL)
	c := st.Cache
	lookups := int64(clients * rounds)
	if c.Hits+c.Misses != lookups {
		t.Errorf("hits %d + misses %d != %d lookups", c.Hits, c.Misses, lookups)
	}
	if c.Builds+c.BuildErrors+c.Deduped != c.Misses {
		t.Errorf("builds %d + errors %d + deduped %d != misses %d", c.Builds, c.BuildErrors, c.Deduped, c.Misses)
	}
	if c.Advances+c.ColdBuilds != c.Builds {
		t.Errorf("advances %d + cold %d != builds %d", c.Advances, c.ColdBuilds, c.Builds)
	}
	if c.BuildErrors != 0 || c.InFlight != 0 || c.Entries > 2 {
		t.Errorf("build errors %d, in-flight %d, entries %d", c.BuildErrors, c.InFlight, c.Entries)
	}
	// Each distinct text's first send must parse; everything else may hit.
	if distinct := int64(3 * len(programs)); st.KeyMemoHits == 0 || st.KeyMemoHits > lookups-distinct {
		t.Errorf("key_memo_hits = %d, want in (0, %d]", st.KeyMemoHits, lookups-distinct)
	}
}

// BenchmarkWarmHit drives warm POST /v1/slice requests for one Siemens
// suite through Handler(): the request path a warm hit pays — decode,
// validate, key lookup, cache hit, slice, emit, JSON. Run with -benchmem;
// ns/op and allocs/op are the layer-level evidence for the key memo.
func BenchmarkWarmHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	var src string
	for _, cfg := range workload.SmallBenchmarks() {
		if cfg.Name == "tot_info" {
			src = workload.GenerateSource(cfg)
		}
	}
	body, err := json.Marshal(SliceRequest{Program: src, Criteria: []CriterionRequest{{Kind: "printf", Proc: "main"}}})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/slice", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	serve() // build the engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// nestedCallsSource is a program whose normalization hoists nested calls
// into temporaries in every procedure, so its normalized text numbers and
// positions statements differently from any spelling of it.
const nestedCallsSource = `int g;
int h(int a) { return a + g; }
int k(int a, int b) { g = g + h(a); return h(h(a) * b); }
int main() {
  int x = h(h(1) + h(2)) * h(3);
  int y = k(h(x), k(1, h(2)));
  if (x > y) { g = h(y) + k(x, 2); } else { g = k(h(g), h(h(y))); }
  printf("%d %d", x, y);
  printf("%d", g);
  return 0;
}
`

// directResults slices specslice.Parse(norm) in process, resolving and
// labelling the criteria as handleSlice does, and renders the results as
// resultsJSON does.
func directResults(t *testing.T, norm string, criteria []CriterionRequest) []byte {
	t.Helper()
	p, err := specslice.MustParse(norm).EliminateIndirectCalls()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	g := eng.SDG()
	reqs := make([]specslice.BatchRequest, len(criteria))
	for i, c := range criteria {
		mode, _ := batchMode(c.Mode)
		reqs[i] = specslice.BatchRequest{Criterion: c.resolve(g), Mode: mode, Label: c.canonical()}
	}
	results, _ := eng.SliceAll(reqs, specslice.BatchOptions{Workers: 1})
	out := make([]SliceResult, len(results))
	for i, res := range results {
		out[i] = SliceResult{Label: res.Label, Mode: canonicalMode(criteria[i].Mode)}
		if res.Err != nil {
			out[i].Error = res.Err.Error()
			continue
		}
		out[i].VariantCounts = res.Slice.VariantCounts()
		out[i].Vertices = res.Slice.Vertices()
		if out[i].Source, err = res.Slice.Source(); err != nil {
			t.Fatal(err)
		}
	}
	return resultsJSON(t, SliceResponse{Results: out})
}

// TestKeyMemoRenumberedProgramSlices: the server builds from the key
// memo's AST, renumbered as its normalized source, instead of re-parsing
// that source. A reformatted program with hoisted calls, sliced at lines
// of its normalized text, must return the bytes of a direct slice of
// specslice.Parse(norm) on its first miss, on the memo-hit rebuild after
// its engine is evicted, and when it is advanced from an ancestor version.
func TestKeyMemoRenumberedProgramSlices(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheMaxEntries: 1})
	spell := func(src string) string { return "/* reformatted */ " + strings.ReplaceAll(src, ";", " ;\n   ") }
	norm := specslice.MustParse(nestedCallsSource).Source()
	if !strings.Contains(norm, "_t1 = h(a);") {
		t.Fatalf("no hoisted call in the normalized text:\n%s", norm)
	}
	crit := []CriterionRequest{{Kind: "printf"}, {Kind: "printf", Proc: "main", Mode: "mono"}}
	for i, l := range strings.Split(norm, "\n") {
		if strings.Contains(l, " = ") {
			crit = append(crit, CriterionRequest{Kind: "line", Line: i + 1})
		}
	}
	want := directResults(t, norm, crit)
	check := func(what string, req SliceRequest) SliceResponse {
		t.Helper()
		status, resp, raw := postSlice(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, status, raw)
		}
		if got := resultsJSON(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("%s: results differ from a direct slice of the normalized text:\n%s\nwant:\n%s", what, got, want)
		}
		for _, r := range resp.Results {
			if r.Error != "" {
				t.Fatalf("%s: %s: %s", what, r.Label, r.Error)
			}
		}
		return resp
	}

	req := SliceRequest{Program: spell(nestedCallsSource), Criteria: crit}
	if first := check("first miss", req); first.CacheHit {
		t.Fatal("first send hit the cache")
	}
	if status, _, raw := postSlice(t, ts.URL, SliceRequest{Program: workload.Fig2Source, Criteria: []CriterionRequest{{Kind: "printf"}}}); status != http.StatusOK {
		t.Fatalf("evictor: status %d: %s", status, raw)
	}
	if again := check("memo-hit rebuild", req); again.CacheHit {
		t.Fatal("rebuild hit the cache")
	}
	if st := getStats(t, ts.URL); st.KeyMemoHits != 1 {
		t.Fatalf("key_memo_hits = %d, want 1", st.KeyMemoHits)
	}

	// An ancestor version with the same procedures, then the program in a
	// spelling not seen before: a memo miss that advances the ancestor.
	ancestor := strings.Replace(nestedCallsSource, "h(3)", "h(4)", 1)
	if status, _, raw := postSlice(t, ts.URL, SliceRequest{Program: ancestor, Criteria: []CriterionRequest{{Kind: "printf"}}}); status != http.StatusOK {
		t.Fatalf("ancestor: status %d: %s", status, raw)
	}
	req.Program = strings.ReplaceAll(nestedCallsSource, "{", "{\n\n")
	if adv := check("advance", req); !adv.Advanced {
		t.Fatalf("the program did not advance from its ancestor: %+v", adv)
	}
}
