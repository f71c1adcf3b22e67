package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specslice/internal/server"
)

// Config tunes the router. Zero values take the documented defaults.
type Config struct {
	// MaxProgramBytes and MaxCriteria size the request envelope exactly
	// like server.Config (defaults 1 MiB / 256) — the router rejects what
	// a worker would reject, without spending a forward on it.
	MaxProgramBytes int64
	MaxCriteria     int
	// TenantRatePerSec and TenantBurst configure per-tenant token-bucket
	// admission (tenant = X-Tenant header, "default" when absent). A zero
	// or negative rate disables tenant limiting. Burst defaults to
	// max(1, ceil(rate)).
	TenantRatePerSec float64
	TenantBurst      int
	// ShardMaxInFlight sheds requests routed to a shard already carrying
	// this many in-flight forwards (default 128; negative disables).
	ShardMaxInFlight int64
	// ShardHotBytes sheds requests routed to a shard whose engine-cache
	// byte size (as of its last probe) is at or past this budget
	// (0 disables). Shedding at the router keeps a hot shard's eviction
	// storm from stalling every family it owns.
	ShardHotBytes int64
	// ProbeInterval is the health-check period (default 500ms);
	// ProbeTimeout bounds one probe (default 2s). FailThreshold
	// consecutive probe failures mark a worker down (default 2); one
	// success marks it back up. Both transitions rebalance the ring.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	// Client overrides the forwarding HTTP client (tests); nil builds one.
	Client *http.Client
	// Now overrides the admission clock (tests).
	Now func() time.Time
	// Logf receives membership and drain events; nil means log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxProgramBytes == 0 {
		c.MaxProgramBytes = 1 << 20
	}
	if c.MaxCriteria == 0 {
		c.MaxCriteria = 256
	}
	if c.ShardMaxInFlight == 0 {
		c.ShardMaxInFlight = 128
	}
	if c.TenantBurst == 0 {
		c.TenantBurst = int(math.Max(1, math.Ceil(c.TenantRatePerSec)))
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 2
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// workerState is the router's view of one worker.
type workerState struct {
	id       string
	url      string
	healthy  bool
	draining bool
	fails    int

	inFlight atomic.Int64 // forwards currently executing against this worker
	routed   atomic.Int64 // forwards ever sent to this worker
	shed     atomic.Int64 // requests shed because this shard ran hot

	// hotBytes is the worker's engine-cache byte size as of its last
	// probe, read by the hot-shard shed check.
	hotBytes atomic.Int64
}

// Router consistent-hashes slice requests across slicing workers by
// program family and fronts them with admission control. It serves the
// same HTTP surface as one worker (POST /v1/slice, GET /v1/stats,
// GET /healthz), so clients — including internal/loadgen — cannot tell a
// router from a single process except by the extra stats blocks.
type Router struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	admit  *admitter
	start  time.Time

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // registration order, for stable stats listing
	ring    *Ring

	// memo answers the routing keys of program texts seen before.
	memo server.KeyMemo

	rebalances int64
	tenantShed int64
	retries    int64
}

// NewRouter returns a router with no workers; AddWorker registers them.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		client:  cfg.Client,
		mux:     http.NewServeMux(),
		admit:   newAdmitter(cfg.TenantRatePerSec, cfg.TenantBurst, cfg.Now),
		start:   time.Now(),
		workers: map[string]*workerState{},
		ring:    NewRing(nil),
	}
	if rt.client == nil {
		// ResponseHeaderTimeout bounds how long a wedged worker — one that
		// accepted the forward but never answers — can hold a forward and
		// the shard's in-flight slot. It must comfortably exceed the slowest
		// legitimate build; the generous bound exists to fail the forward
		// eventually, not to police latency (shedding does that).
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost:   256,
			ResponseHeaderTimeout: 2 * time.Minute,
		}}
	}
	rt.mux.HandleFunc("POST /v1/slice", rt.handleSlice)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return rt
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// AddWorker registers a worker and rebalances the ring to include it. The
// worker is assumed healthy until a probe or forward says otherwise.
func (rt *Router) AddWorker(id, url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.workers[id]; ok {
		return
	}
	rt.workers[id] = &workerState{id: id, url: url, healthy: true}
	rt.order = append(rt.order, id)
	rt.rebuildRingLocked()
	rt.cfg.Logf("cluster: worker %s joined at %s (%d members)", id, url, len(rt.ring.ids))
}

// DrainWorker removes a worker from the ring (no new requests route to
// it; its families deterministically remap to the remaining members) and
// waits up to timeout for the forwards already in flight on it to finish.
// The worker process itself is still running when DrainWorker returns —
// the caller owns stopping it, knowing its in-flight work was forwarded
// to completion first.
func (rt *Router) DrainWorker(id string, timeout time.Duration) error {
	rt.mu.Lock()
	ws, ok := rt.workers[id]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: no worker %q", id)
	}
	if !ws.draining {
		ws.draining = true
		rt.rebuildRingLocked()
		rt.cfg.Logf("cluster: worker %s draining (%d members left)", id, len(rt.ring.ids))
	}
	rt.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for ws.inFlight.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: worker %q still has %d in-flight after %v", id, ws.inFlight.Load(), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// RemoveWorker forgets a worker entirely. Callers wanting a graceful exit
// call DrainWorker first.
func (rt *Router) RemoveWorker(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.workers[id]; !ok {
		return
	}
	delete(rt.workers, id)
	for i, o := range rt.order {
		if o == id {
			rt.order = append(rt.order[:i], rt.order[i+1:]...)
			break
		}
	}
	rt.rebuildRingLocked()
}

// rebuildRingLocked recomputes the ring over healthy, non-draining
// members and counts the rebalance.
func (rt *Router) rebuildRingLocked() {
	var ids []string
	for id, ws := range rt.workers {
		if ws.healthy && !ws.draining {
			ids = append(ids, id)
		}
	}
	rt.ring = NewRing(ids)
	rt.rebalances++
}

// Ring returns the current ring (tests assert placement directly).
func (rt *Router) Ring() *Ring {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring
}

// markWorkerDown records a hard forward failure: the worker is marked
// unhealthy immediately (no probe round-trips while requests are failing)
// and the ring rebalances its families away.
func (rt *Router) markWorkerDown(id string, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ws, ok := rt.workers[id]
	if !ok || !ws.healthy {
		return
	}
	ws.healthy = false
	ws.fails = rt.cfg.FailThreshold
	rt.rebuildRingLocked()
	rt.cfg.Logf("cluster: worker %s down (%v), rebalanced to %d members", id, err, len(rt.ring.ids))
}

// Start runs the health-probe loop until ctx is cancelled.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.ProbeOnce(ctx)
			}
		}
	}()
}

// ProbeOnce health-checks every worker once: a GET /v1/stats inside
// ProbeTimeout must return 200. Success resets the failure count, marks a
// down worker back up (rebalancing), and refreshes the worker's cache
// byte size for the hot-shard shed check; FailThreshold consecutive
// failures mark it down (rebalancing).
func (rt *Router) ProbeOnce(ctx context.Context) {
	rt.mu.Lock()
	snapshot := make([]*workerState, 0, len(rt.workers))
	for _, id := range rt.order {
		snapshot = append(snapshot, rt.workers[id])
	}
	rt.mu.Unlock()

	for _, ws := range snapshot {
		st, err := rt.fetchWorkerStats(ctx, ws)
		rt.mu.Lock()
		if _, still := rt.workers[ws.id]; !still {
			rt.mu.Unlock()
			continue
		}
		if err != nil {
			ws.fails++
			if ws.healthy && ws.fails >= rt.cfg.FailThreshold {
				ws.healthy = false
				rt.rebuildRingLocked()
				rt.cfg.Logf("cluster: worker %s failed %d probes (%v), rebalanced to %d members",
					ws.id, ws.fails, err, len(rt.ring.ids))
			}
		} else {
			ws.fails = 0
			ws.hotBytes.Store(st.Cache.Bytes)
			if !ws.healthy {
				ws.healthy = true
				rt.rebuildRingLocked()
				rt.cfg.Logf("cluster: worker %s recovered, rebalanced to %d members", ws.id, len(rt.ring.ids))
			}
		}
		rt.mu.Unlock()
	}
}

func (rt *Router) fetchWorkerStats(ctx context.Context, ws *workerState) (*server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

type errorResponse struct {
	Error string `json:"error"`
}

func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeShed answers a load-shed decision: 429 with a Retry-After hint in
// whole seconds (minimum 1 — sub-second hints round up rather than
// inviting an immediate retry storm).
func (rt *Router) writeShed(w http.ResponseWriter, retryAfter time.Duration, format string, args ...any) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	rt.writeError(w, http.StatusTooManyRequests, format, args...)
}

// maxCriterionWireBytes mirrors the worker's per-criterion envelope
// allowance (see internal/server).
const maxCriterionWireBytes = 4096

func (rt *Router) handleSlice(w http.ResponseWriter, r *http.Request) {
	// Per-tenant admission runs before any parsing: a tenant past its
	// rate gets a cheap 429, not a free parse of a 1 MiB program.
	if ok, retry := rt.admit.admit(r.Header.Get("X-Tenant")); !ok {
		rt.mu.Lock()
		rt.tenantShed++
		rt.mu.Unlock()
		rt.writeShed(w, retry, "tenant over rate limit")
		return
	}

	limit := rt.bodyLimit()
	body, err := server.ReadBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			rt.writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", tooLarge.Limit)
			return
		}
		rt.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req, err := server.DecodeSliceRequest(body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Program == "" {
		rt.writeError(w, http.StatusBadRequest, "program is required")
		return
	}
	if int64(len(req.Program)) > rt.cfg.MaxProgramBytes {
		rt.writeError(w, http.StatusBadRequest, "program is %d bytes, limit %d", len(req.Program), rt.cfg.MaxProgramBytes)
		return
	}
	if len(req.Criteria) > rt.cfg.MaxCriteria {
		rt.writeError(w, http.StatusBadRequest, "%d criteria, limit %d", len(req.Criteria), rt.cfg.MaxCriteria)
		return
	}

	// The router parses only to compute the routing key, and only for a
	// text it has not seen before; the worker re-validates and analyzes.
	// Routing by FamilyKey — not ContentKey — is what keeps version chains
	// shard-local: every version of an evolving program hashes to the same
	// shard, so Advance always finds its cached ancestor there. It also
	// sends concurrent requests for one program to one worker, whose
	// engine cache joins them onto a single build.
	keys, _, err := rt.memo.Keys(req.Program)
	if err != nil {
		rt.writeError(w, http.StatusUnprocessableEntity, "program does not parse: %v", err)
		return
	}

	// Forward, retrying across membership changes: a dead worker is
	// marked down on its first hard failure and the family re-routes to
	// the rebalanced ring — a kill mid-run costs the client latency, not
	// an error.
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		rt.mu.Lock()
		id, ok := rt.ring.Lookup(keys.Family)
		if !ok {
			rt.mu.Unlock()
			rt.writeError(w, http.StatusServiceUnavailable, "no healthy workers")
			return
		}
		ws := rt.workers[id]
		rt.mu.Unlock()

		// Shard-level shedding: depth and byte-budget pressure answer
		// 429 before the forward adds to the pile.
		if rt.cfg.ShardMaxInFlight > 0 && ws.inFlight.Load() >= rt.cfg.ShardMaxInFlight {
			ws.shed.Add(1)
			rt.writeShed(w, time.Second, "shard %s over in-flight depth %d", id, rt.cfg.ShardMaxInFlight)
			return
		}
		if rt.cfg.ShardHotBytes > 0 && ws.hotBytes.Load() >= rt.cfg.ShardHotBytes {
			ws.shed.Add(1)
			rt.writeShed(w, time.Second, "shard %s cache over byte budget", id)
			return
		}

		status, hdr, respBody, err := rt.forward(r.Context(), ws, body)
		if err != nil {
			// A forward that failed because the *client* went away — its
			// context cancelled on disconnect or expired on deadline — says
			// nothing about the worker's health. Demoting here would let one
			// aborted request (retried against a context that fails
			// instantly) mark healthy workers down and empty the ring.
			if r.Context().Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return
			}
			lastErr = err
			rt.markWorkerDown(id, err)
			rt.mu.Lock()
			rt.retries++
			rt.mu.Unlock()
			continue
		}
		for _, k := range []string{"Content-Type", "Retry-After"} {
			if v := hdr.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	rt.writeError(w, http.StatusBadGateway, "no shard reachable for family: %v", lastErr)
}

// forward posts the request body to the worker's slice endpoint and
// returns the full response. The body is buffered so the router can
// account in-flight depth over the worker's whole service time and retry
// a failed forward on another shard.
func (rt *Router) forward(ctx context.Context, ws *workerState, body []byte) (int, http.Header, []byte, error) {
	ws.inFlight.Add(1)
	defer ws.inFlight.Add(-1)
	ws.routed.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ws.url+"/v1/slice", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	// A worker's declared length is trusted for the allocation as far as a
	// client's is; a longer response is read as it arrives.
	respBody, err := server.ReadBody(resp.Body, resp.ContentLength, rt.bodyLimit())
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// bodyLimit is the request envelope: the largest body a worker could
// accept, sized as the worker sizes it.
func (rt *Router) bodyLimit() int64 {
	return 2*rt.cfg.MaxProgramBytes + int64(rt.cfg.MaxCriteria)*maxCriterionWireBytes + 1<<16
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	healthy := len(rt.ring.ids)
	rt.mu.Unlock()
	if healthy == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// ShardStats is one worker's row in the router's shards stats block.
type ShardStats struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	// Routed counts forwards ever sent to this shard; InFlight is the
	// current depth; Shed counts requests 429'd because this shard ran
	// hot (depth or byte budget).
	Routed   int64 `json:"routed"`
	InFlight int64 `json:"in_flight"`
	Shed     int64 `json:"shed"`
	// Hits, Builds, Bytes, and Entries are the worker's own engine-cache
	// counters, fetched live; zero for an unreachable worker.
	Hits    int64 `json:"hits"`
	Builds  int64 `json:"builds"`
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// RouterStats is the router's own counters block.
type RouterStats struct {
	Rebalances     int64 `json:"rebalances"`
	Workers        int   `json:"workers"`
	HealthyWorkers int   `json:"healthy_workers"`
	// TenantShed counts 429s from per-tenant token buckets; ShardShed
	// sums the per-shard hot-shed counters; Retries counts forwards
	// re-routed after a worker failure; KeyMemoHits counts requests whose
	// routing keys came from the router's raw-text key memo without a
	// parse.
	TenantShed int64 `json:"tenant_shed"`
	ShardShed  int64 `json:"shard_shed"`
	// Deprecated: DedupWaits is always 0. The router no longer gates
	// concurrent requests for one program; the owning worker joins them
	// onto one build, counted in the aggregate cache.builds_deduped.
	DedupWaits  int64 `json:"dedup_waits"`
	Retries     int64 `json:"retries"`
	KeyMemoHits int64 `json:"key_memo_hits"`
}

// StatsResponse is the router's GET /v1/stats body: a cluster-wide
// aggregate shaped exactly like one worker's stats (so clients like
// internal/loadgen can read either), plus router and per-shard blocks.
type StatsResponse struct {
	server.StatsResponse
	Router RouterStats  `json:"router"`
	Shards []ShardStats `json:"shards"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	// healthy and draining are plain fields written under rt.mu by probes,
	// forward failures, and drains — copy them into the snapshot while
	// still holding the lock. The atomics on workerState and the immutable
	// id/url are safe to read after release.
	type shardSnap struct {
		ws       *workerState
		healthy  bool
		draining bool
	}
	rt.mu.Lock()
	snapshot := make([]shardSnap, 0, len(rt.order))
	for _, id := range rt.order {
		ws := rt.workers[id]
		snapshot = append(snapshot, shardSnap{ws: ws, healthy: ws.healthy, draining: ws.draining})
	}
	resp := StatsResponse{
		Router: RouterStats{
			Rebalances: rt.rebalances,
			Workers:    len(rt.workers),
			TenantShed: rt.tenantShed,
			Retries:    rt.retries,
		},
	}
	rt.mu.Unlock()
	resp.Router.KeyMemoHits = rt.memo.Hits()

	resp.UptimeNS = int64(time.Since(rt.start))
	for _, sn := range snapshot {
		ws := sn.ws
		row := ShardStats{
			ID:       ws.id,
			URL:      ws.url,
			Healthy:  sn.healthy,
			Draining: sn.draining,
			Routed:   ws.routed.Load(),
			InFlight: ws.inFlight.Load(),
			Shed:     ws.shed.Load(),
		}
		resp.Router.ShardShed += row.Shed
		if sn.healthy {
			resp.Router.HealthyWorkers++
			if st, err := rt.fetchWorkerStats(r.Context(), ws); err == nil {
				row.Hits = st.Cache.Hits
				row.Builds = st.Cache.Builds
				row.Bytes = st.Cache.Bytes
				row.Entries = st.Cache.Entries
				ws.hotBytes.Store(st.Cache.Bytes)
				// Aggregate the worker into the cluster-wide view.
				resp.Batches += st.Batches
				resp.Requests += st.Requests
				resp.Failed += st.Failed
				resp.BuildsTimed += st.BuildsTimed
				resp.ResponseEncodeErrors += st.ResponseEncodeErrors
				resp.KeyMemoHits += st.KeyMemoHits
				resp.Phases.Add(st.Phases)
				resp.Build.Add(st.Build)
				c := &resp.Cache
				c.Hits += st.Cache.Hits
				c.Misses += st.Cache.Misses
				c.Deduped += st.Cache.Deduped
				c.Builds += st.Cache.Builds
				c.Advances += st.Cache.Advances
				c.ColdBuilds += st.Cache.ColdBuilds
				c.BuildErrors += st.Cache.BuildErrors
				c.Evictions += st.Cache.Evictions
				c.InFlight += st.Cache.InFlight
				c.Entries += st.Cache.Entries
				c.Bytes += st.Cache.Bytes
			}
		}
		resp.Shards = append(resp.Shards, row)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
