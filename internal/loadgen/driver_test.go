package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specslice/internal/server"
)

// TestMixedLoadCacheInvariants is the harness acceptance test (run under
// -race): a balanced schedule against a real server over HTTP, asserting
// the cache-stats identities balance under concurrent reads, edits, and
// dedup — exactly the accounting this PR's bugfixes repaired.
func TestMixedLoadCacheInvariants(t *testing.T) {
	sc, err := ScenarioByName("balanced")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(sc, 150, 2*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}

	s, err := server.New(server.Config{CacheMaxEntries: sc.CacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(ts.URL, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("%d request errors — every scheduled criterion must resolve", rep.Errors)
	}
	if rep.Ops+rep.Shed != int64(len(sched.Ops)) {
		t.Errorf("ops %d + shed %d != scheduled %d", rep.Ops, rep.Shed, len(sched.Ops))
	}
	if rep.Ops == 0 || rep.AchievedOpsPerSec <= 0 {
		t.Fatalf("no completed ops: %+v", rep)
	}
	if rep.P50NS <= 0 || rep.P50NS > rep.P95NS || rep.P95NS > rep.P99NS || rep.P99NS > rep.P999NS {
		t.Errorf("quantiles not positive and monotone: p50=%d p95=%d p99=%d p999=%d",
			rep.P50NS, rep.P95NS, rep.P99NS, rep.P999NS)
	}

	// The fresh server saw only this run, so absolute counters are the
	// run's deltas and the cache identities must balance exactly.
	client := ts.Client()
	st, err := fetchStats(client, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cache
	if c.Hits+c.Misses != rep.Ops {
		t.Errorf("hits %d + misses %d != %d completed ops", c.Hits, c.Misses, rep.Ops)
	}
	if c.Builds+c.BuildErrors+c.Deduped != c.Misses {
		t.Errorf("builds %d + errors %d + deduped %d != misses %d",
			c.Builds, c.BuildErrors, c.Deduped, c.Misses)
	}
	if c.Advances+c.ColdBuilds != c.Builds {
		t.Errorf("advances %d + cold %d != builds %d",
			c.Advances, c.ColdBuilds, c.Builds)
	}
	if c.BuildErrors != 0 {
		t.Errorf("%d build errors", c.BuildErrors)
	}
	if c.InFlight != 0 {
		t.Errorf("in-flight builds = %d after drain", c.InFlight)
	}
	// A balanced mix must exercise every interesting path: warm hits from
	// re-reads and version-chain advances from the edit stream.
	if c.Hits == 0 {
		t.Error("no cache hits in a 50% read mix")
	}
	if c.Advances == 0 {
		t.Error("no version-chain advances from the edit stream")
	}
	// The report's cache delta is those same counters (fresh server).
	if rep.Cache.Hits != c.Hits || rep.Cache.Misses != c.Misses ||
		rep.Cache.Advances != c.Advances {
		t.Errorf("report delta %+v does not match server counters %+v", rep.Cache, c)
	}
}

// TestRunExcludesShedFromQuantiles: a server-shed 429 is a near-instant
// refusal, not service — recording it would deflate the reported tail and
// break comparability between routed (shedding) and direct rows. Against
// a server that sheds everything, the quantiles must stay empty while
// every op is counted as server_shed, none as an error.
func TestRunExcludesShedFromQuantiles(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/slice", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"shedding"}`)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"uptime_ns":1,"cache":{},"batches":0,"requests":0,"failed":0,"phases":{},"build":{},"builds_timed":0,"response_encode_errors":0}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	sc, err := ScenarioByName("read_heavy")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(sc, 100, 500*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ts.URL, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("no ops completed")
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors — shedding is availability, not breakage", rep.Errors)
	}
	if rep.ServerShed != rep.Ops {
		t.Errorf("server_shed = %d, want every one of %d ops", rep.ServerShed, rep.Ops)
	}
	if rep.P50NS != 0 || rep.P999NS != 0 {
		t.Errorf("shed responses leaked into the latency quantiles: p50=%d p999=%d", rep.P50NS, rep.P999NS)
	}
}

// TestRunInProcessSmoke: the standalone path used by `specslice bench` and
// the BENCH workloads block — boots its own server, runs, and shuts down.
func TestRunInProcessSmoke(t *testing.T) {
	sc, err := ScenarioByName("read_heavy")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(sc, 100, time.Second, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunInProcess(sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "read_heavy" || rep.Seed != 11 {
		t.Errorf("report identity = %q seed %d", rep.Name, rep.Seed)
	}
	if rep.Errors != 0 || rep.Ops == 0 {
		t.Errorf("errors=%d ops=%d", rep.Errors, rep.Ops)
	}
	if rep.Cache.Hits == 0 {
		t.Error("read-heavy run produced no cache hits")
	}
}
