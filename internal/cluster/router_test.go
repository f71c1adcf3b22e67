package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specslice/internal/server"
)

// testProgram returns a small MicroC program whose procedure set (and
// thus FamilyKey) is determined by proc and whose content varies with
// version — two versions of one proc name are an edit within a family.
func testProgram(proc string, version int) string {
	return fmt.Sprintf(`
int g;

void %s(int a, int b) {
  g = a + b + %d;
}

int main() {
  %s(1, 2);
  %s(g, 3);
  printf("%%d", g);
  return 0;
}
`, proc, version, proc, proc)
}

func startLocal(t *testing.T, n int, scfg server.Config, rcfg Config) *Local {
	t.Helper()
	lc, err := StartLocal(n, scfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	return lc
}

func postSlice(t *testing.T, baseURL, program string, criteria []server.CriterionRequest, tenant string) (int, []byte) {
	t.Helper()
	if criteria == nil {
		criteria = []server.CriterionRequest{{Kind: "printf"}}
	}
	body, err := json.Marshal(server.SliceRequest{Program: program, Criteria: criteria})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/slice", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func routerStats(t *testing.T, baseURL string) StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRouterFamilyAffinityAdvances: routing by FamilyKey keeps version
// chains shard-local — an edited version of a cached program must land on
// the shard holding its ancestor and be served by Engine.Advance, not a
// cold build.
func TestRouterFamilyAffinityAdvances(t *testing.T) {
	lc := startLocal(t, 3, server.Config{}, Config{})

	status, body := postSlice(t, lc.URL(), testProgram("affine", 1), nil, "")
	if status != http.StatusOK {
		t.Fatalf("v1 status %d: %s", status, body)
	}
	var v1 server.SliceResponse
	json.Unmarshal(body, &v1)
	if v1.Advanced || v1.CacheHit {
		t.Fatalf("first version should cold-build: %+v", v1)
	}

	status, body = postSlice(t, lc.URL(), testProgram("affine", 2), nil, "")
	if status != http.StatusOK {
		t.Fatalf("v2 status %d: %s", status, body)
	}
	var v2 server.SliceResponse
	json.Unmarshal(body, &v2)
	if !v2.Advanced {
		t.Errorf("edited version was not served by a version-chain advance: %s", body)
	}
	if v2.ProgramKey == v1.ProgramKey {
		t.Error("edit did not change the program key")
	}

	st := routerStats(t, lc.URL())
	if st.Cache.Advances != 1 || st.Cache.ColdBuilds != 1 {
		t.Errorf("cluster cache: advances=%d cold=%d, want 1/1", st.Cache.Advances, st.Cache.ColdBuilds)
	}
}

// TestRoutedResponsesByteIdentical: for the same (program, criteria)
// pairs, the routed path must produce exactly the results the
// single-process path produces — sharding may move work, never change it.
func TestRoutedResponsesByteIdentical(t *testing.T) {
	direct, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(direct.Handler())
	defer ts.Close()
	lc := startLocal(t, 3, server.Config{}, Config{})

	criteria := []server.CriterionRequest{
		{Kind: "printf"},
		{Kind: "printf", Proc: "main"},
		{Kind: "printf", Mode: "mono"},
	}
	for i := 0; i < 5; i++ {
		prog := testProgram(fmt.Sprintf("ident%d", i), i)
		ds, dbody := postSlice(t, ts.URL, prog, criteria, "")
		rs, rbody := postSlice(t, lc.URL(), prog, criteria, "")
		if ds != http.StatusOK || rs != http.StatusOK {
			t.Fatalf("program %d: direct %d routed %d", i, ds, rs)
		}
		var dresp, rresp server.SliceResponse
		if err := json.Unmarshal(dbody, &dresp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rbody, &rresp); err != nil {
			t.Fatal(err)
		}
		if dresp.ProgramKey != rresp.ProgramKey {
			t.Errorf("program %d: key %s direct vs %s routed", i, dresp.ProgramKey, rresp.ProgramKey)
		}
		// DurationNS is wall-clock measurement, not slice content; the
		// identity contract covers everything else.
		for j := range dresp.Results {
			dresp.Results[j].DurationNS = 0
		}
		for j := range rresp.Results {
			rresp.Results[j].DurationNS = 0
		}
		if !reflect.DeepEqual(dresp.Results, rresp.Results) {
			t.Errorf("program %d: routed results differ from direct:\n direct: %+v\n routed: %+v",
				i, dresp.Results, rresp.Results)
		}
		// Byte-level check on the results array, not just structural.
		db, _ := json.Marshal(dresp.Results)
		rb, _ := json.Marshal(rresp.Results)
		if !bytes.Equal(db, rb) {
			t.Errorf("program %d: results not byte-identical", i)
		}
	}
}

// TestRouterSingleflight: concurrent cold requests for one ContentKey
// must cost the cluster exactly one cold build — the ring sends them all
// to the owning worker, whose engine cache joins the followers onto the
// first request's build or serves them the finished engine.
func TestRouterSingleflight(t *testing.T) {
	lc := startLocal(t, 2, server.Config{}, Config{})
	prog := testProgram("flight", 7)

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postSlice(t, lc.URL(), prog, nil, "")
		}(i)
	}
	wg.Wait()
	for i, s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("request %d: status %d", i, s)
		}
	}
	st := routerStats(t, lc.URL())
	if st.Cache.ColdBuilds != 1 {
		t.Errorf("%d cold builds across the cluster for one key, want 1", st.Cache.ColdBuilds)
	}
	if got := st.Cache.Hits + st.Cache.Deduped; got != n-1 {
		t.Errorf("hits %d + builds_deduped %d = %d, want %d: every follower must reuse the one build",
			st.Cache.Hits, st.Cache.Deduped, got, n-1)
	}
}

// TestRouterTenantAdmission: the per-tenant token bucket sheds the
// over-rate tenant with 429 + Retry-After while other tenants sail
// through.
func TestRouterTenantAdmission(t *testing.T) {
	now := time.Now()
	lc := startLocal(t, 1, server.Config{}, Config{
		TenantRatePerSec: 1,
		TenantBurst:      1,
		Now:              func() time.Time { return now }, // frozen: no refill
	})
	prog := testProgram("tenant", 1)

	if status, body := postSlice(t, lc.URL(), prog, nil, "alice"); status != http.StatusOK {
		t.Fatalf("alice #1: status %d: %s", status, body)
	}
	req, _ := http.NewRequest(http.MethodPost, lc.URL()+"/v1/slice", bytes.NewReader(mustSliceBody(t, prog)))
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice #2: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if status, _ := postSlice(t, lc.URL(), prog, nil, "bob"); status != http.StatusOK {
		t.Errorf("bob blocked by alice's bucket: status %d", status)
	}
	if st := routerStats(t, lc.URL()); st.Router.TenantShed != 1 {
		t.Errorf("tenant_shed = %d, want 1", st.Router.TenantShed)
	}
}

func mustSliceBody(t *testing.T, program string) []byte {
	t.Helper()
	body, err := json.Marshal(server.SliceRequest{
		Program:  program,
		Criteria: []server.CriterionRequest{{Kind: "printf"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// blockingWorker is a fake worker whose slice endpoint parks until
// released — the deterministic way to hold a shard's in-flight depth up.
type blockingWorker struct {
	ts      *httptest.Server
	arrived chan struct{}
	release chan struct{}
}

func newBlockingWorker() *blockingWorker {
	bw := &blockingWorker{
		arrived: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/slice", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		bw.arrived <- struct{}{}
		<-bw.release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"program_key":"fake","results":[],"stats":{}}`)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"uptime_ns":1,"cache":{},"batches":0,"requests":0,"failed":0,"phases":{},"build":{},"builds_timed":0,"response_encode_errors":0}`)
	})
	bw.ts = httptest.NewServer(mux)
	return bw
}

// TestRouterShardDepthShed: a shard at its in-flight depth limit sheds
// further arrivals with 429 instead of queueing behind the stall.
func TestRouterShardDepthShed(t *testing.T) {
	bw := newBlockingWorker()
	defer bw.ts.Close()
	defer close(bw.release)

	rt := NewRouter(Config{ShardMaxInFlight: 1})
	rt.AddWorker("w0", bw.ts.URL)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/slice", "application/json",
			bytes.NewReader(mustSliceBody(t, testProgram("deep", 1))))
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-bw.arrived // the worker is now holding the only in-flight slot

	// A different program (different key, same single shard): must shed.
	resp, err := http.Post(ts.URL+"/v1/slice", "application/json",
		bytes.NewReader(mustSliceBody(t, testProgram("deep2", 1))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	bw.release <- struct{}{}
	if s := <-firstDone; s != http.StatusOK {
		t.Fatalf("first request status %d", s)
	}
	st := routerStats(t, ts.URL)
	if st.Router.ShardShed != 1 || st.Shards[0].Shed != 1 {
		t.Errorf("shard shed counters = %d/%d, want 1/1", st.Router.ShardShed, st.Shards[0].Shed)
	}
}

// TestRouterDrainForwardsInFlight: draining a worker stops routing new
// requests to it but waits for its in-flight forwards to complete before
// returning — the graceful-exit contract.
func TestRouterDrainForwardsInFlight(t *testing.T) {
	bw := newBlockingWorker()
	defer bw.ts.Close()
	healthy := newBlockingWorker()
	defer healthy.ts.Close()
	close(healthy.release) // never blocks

	rt := NewRouter(Config{})
	rt.AddWorker("w0", bw.ts.URL)
	rt.AddWorker("w1", healthy.ts.URL)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Find a program that routes to w0 so the drain has work to wait on.
	var w0prog string
	for i := 0; ; i++ {
		prog := testProgram(fmt.Sprintf("drain%d", i), 1)
		go http.Post(ts.URL+"/v1/slice", "application/json", bytes.NewReader(mustSliceBody(t, prog)))
		select {
		case <-bw.arrived:
			w0prog = prog
		case <-healthy.arrived:
			continue
		case <-time.After(5 * time.Second):
			t.Fatal("no worker received the probe request")
		}
		break
	}
	_ = w0prog

	drained := make(chan error, 1)
	go func() { drained <- rt.DrainWorker("w0", 10*time.Second) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while a forward was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// While draining, new requests — any family — must avoid w0.
	for i := 0; i < 5; i++ {
		status, body := postSliceFake(t, ts.URL, testProgram(fmt.Sprintf("newfam%d", i), 1))
		if status != http.StatusOK {
			t.Fatalf("request during drain: status %d: %s", status, body)
		}
		select {
		case <-healthy.arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("request during drain did not reach the healthy worker")
		}
	}

	bw.release <- struct{}{}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := routerStats(t, ts.URL)
	for _, sh := range st.Shards {
		if sh.ID == "w0" && (!sh.Draining || sh.InFlight != 0) {
			t.Errorf("w0 after drain: draining=%v in_flight=%d", sh.Draining, sh.InFlight)
		}
	}
}

// postSliceFake posts to a router backed by fake workers (whose bodies
// are canned, not real slice responses).
func postSliceFake(t *testing.T, baseURL, program string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/slice", "application/json", bytes.NewReader(mustSliceBody(t, program)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestRouterKillWorkerRebalance: killing a worker mid-run must not fail
// requests — the first hard forward failure marks it down, rebalances its
// families to the survivors, and retries.
func TestRouterKillWorkerRebalance(t *testing.T) {
	lc := startLocal(t, 3, server.Config{}, Config{})

	const families = 6
	progs := make([]string, families)
	for i := range progs {
		progs[i] = testProgram(fmt.Sprintf("kill%d", i), 1)
		if status, body := postSlice(t, lc.URL(), progs[i], nil, ""); status != http.StatusOK {
			t.Fatalf("warmup %d: status %d: %s", i, status, body)
		}
	}
	st := routerStats(t, lc.URL())
	victim := -1
	for i, sh := range st.Shards {
		if sh.Routed > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard routed anything")
	}
	lc.KillWorker(victim)

	for i, prog := range progs {
		if status, body := postSlice(t, lc.URL(), prog, nil, ""); status != http.StatusOK {
			t.Fatalf("after kill, program %d: status %d: %s", i, status, body)
		}
	}
	st = routerStats(t, lc.URL())
	if st.Router.HealthyWorkers != 2 {
		t.Errorf("healthy workers = %d, want 2", st.Router.HealthyWorkers)
	}
	if st.Router.Retries == 0 {
		t.Error("no retries recorded — the kill was never observed on the forward path")
	}
	for _, sh := range st.Shards {
		if sh.ID == fmt.Sprintf("w%d", victim) && sh.Healthy {
			t.Errorf("killed worker %s still marked healthy", sh.ID)
		}
	}
}

// TestRouterHotShardShed: a shard whose cache bytes (as of its last
// probe) exceed the budget sheds instead of accepting more work.
func TestRouterHotShardShed(t *testing.T) {
	lc := startLocal(t, 1, server.Config{}, Config{ShardHotBytes: 1})

	// First request: hotBytes is still 0 (never probed), so it passes and
	// warms the worker's cache past the 1-byte budget.
	if status, body := postSlice(t, lc.URL(), testProgram("hot", 1), nil, ""); status != http.StatusOK {
		t.Fatalf("first: status %d: %s", status, body)
	}
	lc.Router.ProbeOnce(t.Context())

	status, _ := postSlice(t, lc.URL(), testProgram("hot2", 1), nil, "")
	if status != http.StatusTooManyRequests {
		t.Fatalf("post-probe status %d, want 429", status)
	}
	if st := routerStats(t, lc.URL()); st.Router.ShardShed != 1 {
		t.Errorf("shard_shed = %d, want 1", st.Router.ShardShed)
	}
}

// TestRouterProbeRecovery: a worker that stops answering probes is marked
// down after FailThreshold failures and rebalanced back in after it
// recovers.
func TestRouterProbeRecovery(t *testing.T) {
	bw := newBlockingWorker()
	defer bw.ts.Close()
	close(bw.release)

	rt := NewRouter(Config{FailThreshold: 2, ProbeTimeout: 200 * time.Millisecond})
	rt.AddWorker("w0", bw.ts.URL)
	if got := len(rt.Ring().Members()); got != 1 {
		t.Fatalf("ring members = %d, want 1", got)
	}

	bw.ts.Close() // worker dies
	rt.ProbeOnce(t.Context())
	if got := len(rt.Ring().Members()); got != 1 {
		t.Fatalf("one failed probe already evicted the worker (threshold 2)")
	}
	rt.ProbeOnce(t.Context())
	if got := len(rt.Ring().Members()); got != 0 {
		t.Fatalf("ring members = %d after %d failed probes, want 0", got, 2)
	}

	// Recovery: a fresh worker on a fresh port under the same ID is how a
	// supervisor would restart it; here we re-point the state's URL by
	// re-adding after removal.
	rt.RemoveWorker("w0")
	bw2 := newBlockingWorker()
	defer bw2.ts.Close()
	close(bw2.release)
	rt.AddWorker("w0", bw2.ts.URL)
	rt.ProbeOnce(t.Context())
	if got := len(rt.Ring().Members()); got != 1 {
		t.Fatalf("ring members = %d after recovery, want 1", got)
	}
}

// TestRouterClientCancelKeepsWorkerHealthy: a forward that fails because
// the *client* disconnected must not demote the worker — one aborted
// request must never rebalance the ring or empty it. A second request for
// the same program, parked on the same worker, must also unblock when its
// own client gives up while the first stays parked.
func TestRouterClientCancelKeepsWorkerHealthy(t *testing.T) {
	bw := newBlockingWorker()
	defer bw.ts.Close()
	defer close(bw.release)

	rt := NewRouter(Config{})
	rt.AddWorker("w0", bw.ts.URL)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	prog := testProgram("cancel", 1)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/slice", bytes.NewReader(mustSliceBody(t, prog)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	<-bw.arrived // the leader's forward is parked on the worker

	// Same key: this request is forwarded to the same worker and parks
	// there too.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(waiterCtx, http.MethodPost,
			ts.URL+"/v1/slice", bytes.NewReader(mustSliceBody(t, prog)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		waiterErr <- err
	}()
	select {
	case <-bw.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("second request never reached the worker")
	}

	// The waiter's client gives up: its handler must return even though
	// the leader (and the worker) are still parked.
	cancelWaiter()
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Error("waiter completed despite cancelled context")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on its forward")
	}

	// The leader's client gives up: the forward fails with the client's
	// cancellation, which says nothing about worker health.
	cancelLeader()
	if err := <-leaderErr; err == nil {
		t.Error("leader completed despite cancelled context")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := routerStats(t, ts.URL)
		if st.Shards[0].InFlight == 0 {
			if !st.Shards[0].Healthy {
				t.Error("client cancellation marked the worker down")
			}
			if st.Router.Retries != 0 {
				t.Errorf("client cancellation burned %d retries", st.Router.Retries)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader forward never unwound after cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(rt.Ring().Members()); got != 1 {
		t.Fatalf("ring members = %d after client cancellations, want 1", got)
	}
}

// TestRouterStatsAggregation: the router's top-level stats must be the
// sum of its workers' — the loadgen client reads a router exactly like a
// single server.
func TestRouterStatsAggregation(t *testing.T) {
	lc := startLocal(t, 2, server.Config{}, Config{})
	for i := 0; i < 4; i++ {
		prog := testProgram(fmt.Sprintf("agg%d", i), 1)
		for j := 0; j < 2; j++ { // second round: warm hits
			if status, body := postSlice(t, lc.URL(), prog, nil, ""); status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
		}
	}
	st := routerStats(t, lc.URL())
	if len(st.Shards) != 2 {
		t.Fatalf("%d shard rows, want 2", len(st.Shards))
	}
	var hits, builds, bytes int64
	for _, sh := range st.Shards {
		hits += sh.Hits
		builds += sh.Builds
		bytes += sh.Bytes
	}
	if hits != st.Cache.Hits || builds != st.Cache.Builds || bytes != st.Cache.Bytes {
		t.Errorf("shard sums (hits %d builds %d bytes %d) != aggregate (%d %d %d)",
			hits, builds, bytes, st.Cache.Hits, st.Cache.Builds, st.Cache.Bytes)
	}
	if st.Cache.Hits != 4 || st.Cache.ColdBuilds != 4 {
		t.Errorf("cluster cache hits=%d cold=%d, want 4/4", st.Cache.Hits, st.Cache.ColdBuilds)
	}
	if st.Batches != 8 {
		t.Errorf("aggregate batches = %d, want 8", st.Batches)
	}
}

// TestRouterRejectsTrailingBody: the router, like a worker, accepts exactly
// one JSON object per request. A valid object followed by garbage, a
// second object or a stray brace is a 400 answered at the router, with
// nothing forwarded; a trailing newline is still fine.
func TestRouterRejectsTrailingBody(t *testing.T) {
	var forwarded atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/slice", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		forwarded.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"program_key":"fake","results":[],"stats":{}}`)
	})
	worker := httptest.NewServer(mux)
	defer worker.Close()
	rt := NewRouter(Config{})
	rt.AddWorker("w0", worker.URL)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	valid := mustSliceBody(t, testProgram("trail", 1))
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/slice", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, trailer := range map[string]string{
		"trailing garbage": " garbage",
		"second object":    string(valid),
		"stray brace":      "}",
	} {
		if status := post(string(valid) + trailer); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Fatalf("%d malformed requests forwarded to the worker", n)
	}
	if status := post(string(valid) + "\n"); status != http.StatusOK {
		t.Fatalf("trailing newline: status %d, want 200", status)
	}
	if n := forwarded.Load(); n != 1 {
		t.Fatalf("%d requests forwarded, want 1", n)
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

// TestRouterHugeContentLength: at the router, a request declaring 1 TiB
// gets a 400 over a short body and a 413 over one past the envelope,
// nothing is forwarded, and the declared length is never allocated: the
// short body costs the process less than the envelope.
func TestRouterHugeContentLength(t *testing.T) {
	var forwarded atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded.Add(1)
	}))
	defer worker.Close()
	rt := NewRouter(Config{})
	rt.AddWorker("w0", worker.URL)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	const declared = 1 << 40
	envelope := rt.bodyLimit()
	valid := mustSliceBody(t, testProgram("huge", 1))
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
	if n := forwarded.Load(); n != 0 {
		t.Errorf("%d requests forwarded, want 0", n)
	}
}

// TestRouterReplyContentLength: the router relays a worker's response
// with its length, whether the worker declared one or streamed its body
// in chunks.
func TestRouterReplyContentLength(t *testing.T) {
	reply := `{"program_key":"fake","results":[],"stats":{}}` + "\n"
	for _, chunked := range []bool{false, true} {
		worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			if chunked {
				io.WriteString(w, reply[:10])
				w.(http.Flusher).Flush()
				io.WriteString(w, reply[10:])
				return
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
			io.WriteString(w, reply)
		}))
		rt := NewRouter(Config{})
		rt.AddWorker("w0", worker.URL)
		ts := httptest.NewServer(rt.Handler())
		resp, err := http.Post(ts.URL+"/v1/slice", "application/json", bytes.NewReader(mustSliceBody(t, testProgram("length", 1))))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		worker.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != reply {
			t.Errorf("chunked=%v: status %d, body %q", chunked, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(reply)) {
			t.Errorf("chunked=%v: Content-Length %d, want %d", chunked, resp.ContentLength, len(reply))
		}
	}
}
