package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"specslice/internal/server"
)

// Options tunes a run; the zero value takes the documented defaults.
type Options struct {
	// MaxInFlight bounds concurrent requests (default 256). An arrival
	// that finds every slot busy is shed and counted, never sent — the
	// open-loop schedule does not stretch to accommodate a slow server.
	MaxInFlight int
	// RequestTimeout bounds one HTTP request (default 30s); a timeout
	// counts as an error with its elapsed time still recorded, so stalls
	// surface in the tail instead of vanishing.
	RequestTimeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one sized to
	// MaxInFlight.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 256
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// CacheDelta is the server engine-cache movement over one run, from
// GET /v1/stats before and after.
type CacheDelta struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Advances int64 `json:"advances"`
	DiskHits int64 `json:"disk_hits"`
}

// Report is one scenario run's result — the workloads entry written to
// BENCH_engine.json and printed by `specslice bench`.
type Report struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// TargetOpsPerSec is the open-loop schedule's rate; AchievedOpsPerSec
	// is completed requests over the measured wall time. A large gap (or
	// a non-zero Shed) means the server could not keep up.
	TargetOpsPerSec   float64 `json:"target_ops_per_sec"`
	AchievedOpsPerSec float64 `json:"achieved_ops_per_sec"`
	// Ops counts completed requests; Writes the subset that sent a new
	// program version (edit stream).
	Ops    int64 `json:"ops"`
	Writes int64 `json:"writes"`
	// Service-time quantiles from the log-bucket histogram, conservative
	// to one bucket (~12%). Served requests only: server-shed 429s are
	// excluded so routed rows stay comparable with direct ones.
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	// Errors counts failed responses (non-2xx other than 429, transport
	// failures) and per-criterion resolution errors; Shed counts arrivals
	// dropped client-side at the in-flight cap. ServerShed counts 429s —
	// the server's admission layer intentionally refusing load — which
	// are deliberately not Errors: the CI errors == 0 gate must catch
	// breakage, not load-shedding doing its job.
	Errors     int64      `json:"errors"`
	Shed       int64      `json:"shed"`
	ServerShed int64      `json:"server_shed"`
	DurationNS int64      `json:"duration_ns"`
	Cache      CacheDelta `json:"cache"`
	// Shards is the routed-mode shard count (0 = direct single-process
	// run); ShardRouted is the per-shard count of forwards the router
	// sent over this run, in worker order — the balance evidence.
	Shards      int     `json:"shards"`
	ShardRouted []int64 `json:"shard_routed,omitempty"`
}

// Run executes a schedule against the slicing service at baseURL
// (e.g. "http://127.0.0.1:8080"). The arrival process is the schedule's:
// each op fires at its precomputed offset, runs on its own goroutine inside
// the in-flight cap, and records service time (send to fully-read
// response) in the histogram.
func Run(baseURL string, sched *Schedule, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: opts.RequestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        opts.MaxInFlight,
				MaxIdleConnsPerHost: opts.MaxInFlight,
			},
		}
	}

	before, err := fetchStats(client, baseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats before run: %w", err)
	}

	hist := NewLatencyHistogram()
	rep := &Report{
		Name:            sched.Scenario.Name,
		Seed:            sched.Seed,
		TargetOpsPerSec: sched.Rate,
	}
	type counters struct {
		ops, writes, errors, serverShed int64
	}
	done := make(chan counters, len(sched.Ops))
	sem := make(chan struct{}, opts.MaxInFlight)
	inFlight := 0

	start := time.Now()
	for _, op := range sched.Ops {
		if d := time.Until(start.Add(op.At)); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			rep.Shed++
			continue
		}
		inFlight++
		go func(op Op) {
			defer func() { <-sem }()
			var c counters
			c.ops = 1
			if op.Write {
				c.writes = 1
			}
			t0 := time.Now()
			errs, shed := doSlice(client, baseURL, sched.Sources[op.Program], op.Criteria)
			// Shed responses are near-instant 429s, not service: recording
			// them would deflate the tail and break comparability between
			// routed and direct rows. Quantiles cover served requests only
			// (errors and timeouts included — stalls must surface).
			if shed == 0 {
				hist.Record(time.Since(t0))
			}
			c.errors = errs
			c.serverShed = shed
			done <- c
		}(op)
	}
	for i := 0; i < inFlight; i++ {
		c := <-done
		rep.Ops += c.ops
		rep.Writes += c.writes
		rep.Errors += c.errors
		rep.ServerShed += c.serverShed
	}
	elapsed := time.Since(start)

	rep.DurationNS = elapsed.Nanoseconds()
	if sec := elapsed.Seconds(); sec > 0 {
		rep.AchievedOpsPerSec = float64(rep.Ops) / sec
	}
	rep.P50NS = hist.Quantile(0.50).Nanoseconds()
	rep.P95NS = hist.Quantile(0.95).Nanoseconds()
	rep.P99NS = hist.Quantile(0.99).Nanoseconds()
	rep.P999NS = hist.Quantile(0.999).Nanoseconds()

	after, err := fetchStats(client, baseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: stats after run: %w", err)
	}
	rep.Cache = CacheDelta{
		Hits:     after.Cache.Hits - before.Cache.Hits,
		Misses:   after.Cache.Misses - before.Cache.Misses,
		Advances: after.Cache.Advances - before.Cache.Advances,
		DiskHits: after.Cache.DiskHits - before.Cache.DiskHits,
	}
	return rep, nil
}

// doSlice posts one batch and returns the number of failures it observed
// (0 on a fully clean response; transport and status failures count 1)
// plus whether the server shed the request. A 429 is the admission layer
// refusing load on purpose — an availability event, not a failure — so it
// counts as serverShed, never as an error.
func doSlice(client *http.Client, baseURL, program string, criteria []server.CriterionRequest) (errs, serverShed int64) {
	body, err := json.Marshal(server.SliceRequest{
		Program:  program,
		Criteria: criteria,
		NoSource: true, // tail measurement, not output consumption
	})
	if err != nil {
		return 1, 0
	}
	resp, err := client.Post(baseURL+"/v1/slice", "application/json", bytes.NewReader(body))
	if err != nil {
		return 1, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return 0, 1
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 1, 0
	}
	var out server.SliceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 1, 0
	}
	for _, r := range out.Results {
		if r.Error != "" {
			errs++
		}
	}
	return errs, 0
}

func fetchStats(client *http.Client, baseURL string) (*server.StatsResponse, error) {
	resp, err := client.Get(baseURL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RunInProcess starts a fresh slicing server on a loopback listener (cache
// sized by the scenario), runs the schedule against it over real HTTP, and
// drains the server before returning — the standalone configuration
// `specslice bench` and the BENCH_engine.json workloads block use.
func RunInProcess(sched *Schedule, opts Options) (*Report, error) {
	cfg := server.Config{}
	if sched.Scenario.CacheEntries > 0 {
		cfg.CacheMaxEntries = sched.Scenario.CacheEntries
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	rep, runErr := Run("http://"+ln.Addr().String(), sched, opts)
	cancel()
	if err := <-serveErr; runErr == nil && err != nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	return rep, nil
}
