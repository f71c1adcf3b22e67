package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"specslice/internal/server"
)

// TestRouterKeyMemo: the router memoizes routing keys by raw text exactly
// like a worker. A repeated text skips the parse at both tiers and returns
// the parsed request's results; a reformatted variant is a new text but the
// same ContentKey and family, so it lands on the same engine; an
// unparseable text draws 422 at the router on every send.
func TestRouterKeyMemo(t *testing.T) {
	lc := startLocal(t, 2, server.Config{}, Config{})
	prog := testProgram("memo", 1)

	send := func(program string) server.SliceResponse {
		t.Helper()
		status, body := postSlice(t, lc.URL(), program, nil, "")
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var resp server.SliceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for i := range resp.Results {
			resp.Results[i].DurationNS = 0
		}
		return resp
	}
	parsed := send(prog)
	if st := routerStats(t, lc.URL()); st.Router.KeyMemoHits != 0 || st.KeyMemoHits != 0 {
		t.Fatalf("first send: router key_memo_hits=%d workers=%d, want 0/0", st.Router.KeyMemoHits, st.KeyMemoHits)
	}
	memo := send(prog)
	st := routerStats(t, lc.URL())
	if st.Router.KeyMemoHits != 1 || st.KeyMemoHits != 1 {
		t.Errorf("repeat: router key_memo_hits=%d workers=%d, want 1/1", st.Router.KeyMemoHits, st.KeyMemoHits)
	}
	a, _ := json.Marshal(parsed.Results)
	b, _ := json.Marshal(memo.Results)
	if !memo.CacheHit || memo.ProgramKey != parsed.ProgramKey || !bytes.Equal(a, b) {
		t.Errorf("memo path diverges from the parsed path:\n%s\n%s", a, b)
	}

	variant := send("// reformatted\n" + prog)
	if variant.ProgramKey != parsed.ProgramKey || !variant.CacheHit {
		t.Errorf("variant: key %s hit=%v, want a hit on %s", variant.ProgramKey, variant.CacheHit, parsed.ProgramKey)
	}
	st = routerStats(t, lc.URL())
	if st.Router.KeyMemoHits != 1 || st.Cache.Builds != 1 {
		t.Errorf("after variant: router key_memo_hits=%d builds=%d, want 1/1", st.Router.KeyMemoHits, st.Cache.Builds)
	}

	for i := 0; i < 3; i++ {
		if status, body := postSlice(t, lc.URL(), "int main( {", nil, ""); status != http.StatusUnprocessableEntity {
			t.Fatalf("unparseable send %d: status %d, want 422: %s", i, status, body)
		}
	}
	if st := routerStats(t, lc.URL()); st.Router.KeyMemoHits != 1 {
		t.Errorf("unparseable texts moved router key_memo_hits to %d", st.Router.KeyMemoHits)
	}
}
