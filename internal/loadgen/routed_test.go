package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunRoutedReadHeavy is the routed-mode acceptance test: a read_heavy
// schedule through an in-process cluster must complete with zero errors,
// spread forwards over every shard, and keep the report's accounting
// identities intact.
func TestRunRoutedReadHeavy(t *testing.T) {
	sc, err := ScenarioByName("read_heavy")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(sc, 120, 2*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	rep, err := RunRouted(sched, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "read_heavy_routed_3" || rep.Shards != shards {
		t.Errorf("report identity = %q shards %d", rep.Name, rep.Shards)
	}
	if rep.Errors != 0 {
		t.Errorf("%d request errors through the router — every scheduled criterion must resolve", rep.Errors)
	}
	if rep.Ops == 0 {
		t.Fatal("no completed ops")
	}
	if rep.Ops+rep.Shed != int64(len(sched.Ops)) {
		t.Errorf("ops %d + shed %d != scheduled %d", rep.Ops, rep.Shed, len(sched.Ops))
	}
	if len(rep.ShardRouted) != shards {
		t.Fatalf("shard_routed has %d entries, want %d", len(rep.ShardRouted), shards)
	}
	var routed int64
	for i, n := range rep.ShardRouted {
		if n == 0 {
			t.Errorf("shard %d received no forwards — the family distribution collapsed", i)
		}
		routed += n
	}
	// Every completed non-shed op was forwarded at least once (a 429
	// never reaches a shard; kill-retries can add forwards, never remove
	// them).
	if routed < rep.Ops-rep.ServerShed {
		t.Errorf("forwards %d < completed ops %d - sheds %d", routed, rep.Ops, rep.ServerShed)
	}
	// Aggregated cluster cache movement flows through the same stats path
	// a single server serves, so the delta must balance over the requests
	// that reached a shard.
	if rep.Cache.Hits+rep.Cache.Misses != rep.Ops-rep.ServerShed {
		t.Errorf("cache delta hits %d + misses %d != ops %d - sheds %d",
			rep.Cache.Hits, rep.Cache.Misses, rep.Ops, rep.ServerShed)
	}
	if rep.Cache.Hits == 0 {
		t.Error("read-heavy routed run produced no cache hits")
	}
	if rep.P50NS <= 0 || rep.P50NS > rep.P99NS || rep.P99NS > rep.P999NS {
		t.Errorf("quantiles not positive and monotone: p50=%d p99=%d p999=%d", rep.P50NS, rep.P99NS, rep.P999NS)
	}
}

// TestDoSliceCountsServerShed: 429 from the admission layer is a
// server_shed, never an error — the CI errors == 0 gate must not conflate
// intentional load-shedding with breakage.
func TestDoSliceCountsServerShed(t *testing.T) {
	// Requests arrive on concurrent connections, so the counter is atomic.
	var count atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			fmt.Fprint(w, `{"cache":{}}`)
			return
		}
		n := count.Add(1)
		switch {
		case n%3 == 0: // shed
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shard over in-flight depth"}`)
		case n%5 == 0: // hard failure
			w.WriteHeader(http.StatusInternalServerError)
		default:
			fmt.Fprint(w, `{"program_key":"k","results":[],"stats":{}}`)
		}
	}))
	defer ts.Close()

	sched := &Schedule{
		Scenario: Scenario{Name: "shed_test"},
		Rate:     1000,
		Duration: time.Second,
		Sources:  []string{"int main() { return 0; }"},
	}
	const ops = 30
	for i := 0; i < ops; i++ {
		sched.Ops = append(sched.Ops, Op{At: time.Duration(i) * time.Millisecond, Program: 0})
	}
	rep, err := Run(ts.URL, sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != ops {
		t.Fatalf("ops = %d, want %d", rep.Ops, ops)
	}
	// Of 30 requests: every 3rd is shed (10), every remaining 5th is a
	// 500 (n in {5, 10, 20, 25} — 15 and 30 are already shed), the rest
	// succeed.
	if rep.ServerShed != 10 {
		t.Errorf("server_shed = %d, want 10", rep.ServerShed)
	}
	if rep.Errors != 4 {
		t.Errorf("errors = %d, want 4 (the 500s, not the 429s)", rep.Errors)
	}
}
