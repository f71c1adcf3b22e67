package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"specslice"
)

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// CacheMaxEntries bounds the engine cache's entry count (default 64;
	// negative disables the bound).
	CacheMaxEntries int
	// CacheMaxBytes bounds the engine cache's total estimated bytes
	// (default 512 MiB; negative disables the bound).
	CacheMaxBytes int64
	// MaxProgramBytes rejects larger program sources (default 1 MiB).
	MaxProgramBytes int64
	// MaxCriteria rejects larger criterion batches (default 256).
	MaxCriteria int
	// Workers is the default per-batch worker-pool size (0 = GOMAXPROCS).
	Workers int
	// ShutdownGrace bounds the drain of in-flight requests on shutdown
	// (default 10s).
	ShutdownGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheMaxEntries == 0 {
		c.CacheMaxEntries = 64
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 512 << 20
	}
	if c.MaxProgramBytes == 0 {
		c.MaxProgramBytes = 1 << 20
	}
	if c.MaxCriteria == 0 {
		c.MaxCriteria = 256
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	return c
}

// Server serves slice requests over HTTP, backed by a content-addressed
// engine cache. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	cache *EngineCache
	memo  KeyMemo
	mux   *http.ServeMux
	start time.Time

	mu       sync.Mutex
	batches  int64
	requests int64
	failed   int64
	phases   specslice.Timings
	// build aggregates the cold-build phase timings of engines this
	// server built (cache misses that did not advance a version chain).
	build       specslice.BuildStats
	buildsTimed int64
	// encodeErrors counts responses whose JSON encoding or body write
	// failed after the status header was written — the client saw a
	// truncated body. Counted (and logged) so broken responses are
	// observable instead of silent.
	encodeErrors int64
}

// New returns a server with its routes installed. The error is always
// nil.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewEngineCache(cfg.CacheMaxEntries, cfg.CacheMaxBytes),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/slice", s.handleSlice)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the engine cache (stats endpoints, tests).
func (s *Server) Cache() *EngineCache { return s.cache }

// Serve runs the server on ln until ctx is cancelled, then drains
// in-flight requests for up to ShutdownGrace.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
		return nil
	}
}

// SliceRequest is the body of POST /v1/slice: one program and a batch of
// slicing criteria served through the shared engine.
type SliceRequest struct {
	// Program is MicroC source text.
	Program string `json:"program"`
	// Criteria is the batch; each entry carries its own mode.
	Criteria []CriterionRequest `json:"criteria"`
	// Workers overrides the server's per-batch worker-pool size.
	Workers int `json:"workers,omitempty"`
	// NoSource omits the emitted program text from results (stats-only
	// clients, e.g. dashboards polling slice sizes).
	NoSource bool `json:"no_source,omitempty"`
}

// CriterionRequest selects one slice of the program.
type CriterionRequest struct {
	// Kind is "printf" (arguments of every printf, optionally restricted
	// to Proc), "line" (statements on source line Line — note the line
	// numbering is that of the lang-normalized program, the canonical
	// text behind ProgramKey, not the raw request text), or "stmt"
	// (statement printed as Stmt in procedure Proc).
	Kind string `json:"kind"`
	Proc string `json:"proc,omitempty"`
	Line int    `json:"line,omitempty"`
	Stmt string `json:"stmt,omitempty"`
	// Mode is "poly" (default), "mono", "weiser", or "feature".
	Mode string `json:"mode,omitempty"`
	// Label identifies the request in results; defaults to a canonical
	// rendering of the criterion.
	Label string `json:"label,omitempty"`
}

// SliceResponse is the body of a successful POST /v1/slice.
type SliceResponse struct {
	// ProgramKey is the content address of the lang-normalized program.
	ProgramKey string `json:"program_key"`
	// CacheHit reports whether the engine was served warm from the cache.
	CacheHit bool `json:"cache_hit"`
	// Deduped reports that this request joined another request's in-flight
	// build of the same engine and only waited for it. Advanced is reserved
	// for the request that did the work: a deduped waiter never claims it,
	// no matter how the builder obtained the engine.
	Deduped bool `json:"deduped,omitempty"`
	// Advanced reports that this request built the engine by advancing a
	// cached ancestor version of the same program family instead of
	// analyzing from scratch (version-chain semantics; see FamilyKey).
	Advanced bool          `json:"advanced,omitempty"`
	Results  []SliceResult `json:"results"`
	// Stats aggregates the batch, including the Fig. 21 phase breakdown.
	Stats specslice.BatchStats `json:"stats"`
}

// SliceResult is the outcome of one criterion.
type SliceResult struct {
	Label string `json:"label"`
	Mode  string `json:"mode"`
	// Source is the specialized program text (omitted with no_source).
	Source string `json:"source,omitempty"`
	// VariantCounts maps each sliced procedure to its number of
	// specialized versions.
	VariantCounts map[string]int `json:"variant_counts,omitempty"`
	// Vertices is the slice's total vertex count (copies counted).
	Vertices   int    `json:"vertices,omitempty"`
	DurationNS int64  `json:"duration_ns"`
	Error      string `json:"error,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeNS int64      `json:"uptime_ns"`
	Cache    CacheStats `json:"cache"`
	// Batches counts POST /v1/slice calls that reached the engine;
	// Requests and Failed count individual criteria across them.
	Batches  int64 `json:"batches"`
	Requests int64 `json:"requests"`
	Failed   int64 `json:"failed"`
	// Phases aggregates every served batch's polyvariant phase timings.
	Phases specslice.Timings `json:"phases"`
	// Build aggregates the cold-build phase breakdown (mod/ref, parallel
	// PDG construction, interprocedural wiring) and worker-pool width of
	// the engines this server cold-built; BuildsTimed counts them.
	Build       specslice.BuildStats `json:"build"`
	BuildsTimed int64                `json:"builds_timed"`
	// ResponseEncodeErrors counts responses whose JSON encoding or body
	// write failed after the status header was written (the client saw a
	// truncated body); non-zero means broken responses went out.
	ResponseEncodeErrors int64 `json:"response_encode_errors"`
	// KeyMemoHits counts requests whose exact program text had been seen
	// before, so their cache keys came from the raw-text key memo without
	// a parse.
	KeyMemoHits int64 `json:"key_memo_hits"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxCriterionWireBytes is the per-criterion allowance in the request-size
// envelope: kind, proc, a statement text (one source line), a client-chosen
// label, mode, and JSON punctuation. 4 KiB is far above any legal
// criterion while keeping a 256-criterion envelope around 1 MiB.
const maxCriterionWireBytes = 4096

// writeJSON writes v with the given status. An encode failure cannot be
// turned into an error response — the status header is already on the wire
// — but it must not be silent either: the client received a truncated body,
// so it is logged and counted (response_encode_errors in /v1/stats).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("server: response encode failed after status %d: %v", status, err)
		s.mu.Lock()
		s.encodeErrors++
		s.mu.Unlock()
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := StatsResponse{
		Batches:     s.batches,
		Requests:    s.requests,
		Failed:      s.failed,
		Phases:      s.phases,
		Build:       s.build,
		BuildsTimed: s.buildsTimed,
	}
	resp.ResponseEncodeErrors = s.encodeErrors
	s.mu.Unlock()
	resp.UptimeNS = int64(time.Since(s.start))
	resp.KeyMemoHits = s.memo.Hits()
	resp.Cache = s.cache.Stats()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	// Transport-level cap only: JSON escaping can double the program text
	// (newlines, tabs, quotes), and a legal batch of MaxCriteria criteria
	// carries statement texts and labels of its own, so the envelope is
	// sized from both plus fixed slack; validate() stays the authoritative
	// program-size and batch-size check.
	limit := 2*s.cfg.MaxProgramBytes + int64(s.cfg.MaxCriteria)*maxCriterionWireBytes + 1<<16
	body, readErr := ReadBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	req, err := decodeSliceRequest(body, readErr != nil)
	if readErr != nil && (err == nil || err == io.EOF || err == io.ErrUnexpectedEOF) {
		// The bytes read so far hold no error: the read error decides, as
		// it did when the body was decoded as it arrived.
		err = readErr
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", tooLarge.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := s.validate(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// A text seen before byte for byte skips the parse: the memo answers
	// its keys, and prog stays nil until a build needs it.
	keys, prog, err := s.memo.Keys(req.Program)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "program does not parse: %v", err)
		return
	}
	key, family := keys.Content, keys.Family
	eng, hit, deduped, source, err := s.cache.Get(key, family, func(ancestor *specslice.Engine) (*specslice.Engine, BuildSource, error) {
		if prog == nil {
			// Memo hit, engine gone: parse the request text now.
			parsed, _, err := specslice.ParseNormalized(req.Program)
			if err != nil {
				return nil, BuildCold, err
			}
			prog = parsed
		}
		// prog is numbered as its normalized source, not as the request
		// text: every normalization-equivalent request must observe the
		// same engine, including source positions — a line criterion
		// resolves against the normalized program's line numbering no
		// matter whose formatting populated the cache.
		p, err := prog.EliminateIndirectCalls()
		if err != nil {
			return nil, BuildCold, err
		}
		// A near-miss key with a cached ancestor in the same family
		// advances the ancestor's analysis state through the edit instead
		// of cold-building. An advance failure (e.g. the transformed
		// program acquired indirect-call dispatchers the ancestor lacks)
		// falls through to a cold build.
		if ancestor != nil {
			if neng, _, err := ancestor.Advance(p); err == nil {
				return neng, BuildAdvance, nil
			}
		}
		neng, err := p.Engine()
		if err == nil {
			// This closure runs exactly once per distinct build
			// (singleflight), so the cold-build phase aggregate counts
			// each graph construction once.
			s.mu.Lock()
			s.build.Add(neng.BuildStats())
			s.buildsTimed++
			s.mu.Unlock()
		}
		return neng, BuildCold, err
	})
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "program does not analyze: %v", err)
		return
	}

	g := eng.SDG()
	reqs := make([]specslice.BatchRequest, len(req.Criteria))
	for i, c := range req.Criteria {
		mode, _ := batchMode(c.Mode) // validated above
		label := c.Label
		if label == "" {
			label = c.canonical()
		}
		reqs[i] = specslice.BatchRequest{Criterion: c.resolve(g), Mode: mode, Label: label}
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	results, stats := eng.SliceAll(reqs, specslice.BatchOptions{Workers: workers})

	resp := SliceResponse{
		ProgramKey: key,
		CacheHit:   hit,
		Deduped:    deduped,
		// Advanced belongs to the request whose closure did the work; a
		// waiter that merely joined the in-flight build reports Deduped
		// instead of claiming the builder's path.
		Advanced: source == BuildAdvance && !hit && !deduped,
		Results:  make([]SliceResult, 0, len(results)),
		Stats:    stats,
	}
	for i, res := range results {
		out := SliceResult{
			Label:      res.Label,
			Mode:       canonicalMode(req.Criteria[i].Mode),
			DurationNS: int64(res.Duration),
		}
		if res.Err != nil {
			out.Error = res.Err.Error()
		} else {
			out.VariantCounts = res.Slice.VariantCounts()
			out.Vertices = res.Slice.Vertices()
			if !req.NoSource {
				if src, err := res.Slice.Source(); err != nil {
					out.Error = err.Error()
				} else {
					out.Source = src
				}
			}
		}
		resp.Results = append(resp.Results, out)
	}

	// Failures are counted over the final results, so emit errors (which
	// surface after the engine batch) are included, and the per-response
	// stats agree with the aggregate /v1/stats counter.
	failed := 0
	for _, res := range resp.Results {
		if res.Error != "" {
			failed++
		}
	}
	resp.Stats.Failed = failed
	s.mu.Lock()
	s.batches++
	s.requests += int64(stats.Requests)
	s.failed += int64(failed)
	s.phases.Add(stats.Phases)
	s.mu.Unlock()

	s.writeSlice(w, &resp)
}

// writeSlice writes a successful slice response, with its length, in one
// write. A failed write is logged and counted as writeJSON counts a
// failed encode: the client saw a truncated body.
func (s *Server) writeSlice(w http.ResponseWriter, resp *SliceResponse) {
	b := appendSliceResponse(make([]byte, 0, sliceResponseSize(resp)), resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		log.Printf("server: response write failed after status %d: %v", http.StatusOK, err)
		s.mu.Lock()
		s.encodeErrors++
		s.mu.Unlock()
	}
}

func (s *Server) validate(req *SliceRequest) error {
	if req.Program == "" {
		return errors.New("program is required")
	}
	if int64(len(req.Program)) > s.cfg.MaxProgramBytes {
		return fmt.Errorf("program is %d bytes, limit %d", len(req.Program), s.cfg.MaxProgramBytes)
	}
	if len(req.Criteria) == 0 {
		return errors.New("at least one criterion is required")
	}
	if len(req.Criteria) > s.cfg.MaxCriteria {
		return fmt.Errorf("%d criteria, limit %d", len(req.Criteria), s.cfg.MaxCriteria)
	}
	if req.Workers < 0 {
		return errors.New("workers must be >= 0")
	}
	for i, c := range req.Criteria {
		if _, ok := batchMode(c.Mode); !ok {
			return fmt.Errorf("criteria[%d]: unknown mode %q (want poly, mono, weiser, or feature)", i, c.Mode)
		}
		switch c.Kind {
		case "printf":
		case "line":
			if c.Line <= 0 {
				return fmt.Errorf("criteria[%d]: line criterion needs a positive line", i)
			}
			// Line numbering is program-wide (the normalized program's), so
			// a proc scope would be silently ignored — reject it rather
			// than return an unscoped answer the client did not ask for.
			if c.Proc != "" {
				return fmt.Errorf("criteria[%d]: line criteria do not accept proc (line numbering is program-wide; use a stmt criterion to scope by procedure)", i)
			}
		case "stmt":
			if c.Proc == "" || c.Stmt == "" {
				return fmt.Errorf("criteria[%d]: stmt criterion needs proc and stmt", i)
			}
		default:
			return fmt.Errorf("criteria[%d]: unknown kind %q (want printf, line, or stmt)", i, c.Kind)
		}
	}
	return nil
}

// resolve maps the request onto an SDG criterion; resolution failures (no
// such printf, no statement on the line) surface as that request's error.
func (c CriterionRequest) resolve(g *specslice.SDG) specslice.Criterion {
	switch c.Kind {
	case "printf":
		return g.PrintfCriterion(c.Proc)
	case "line":
		return g.LineCriterion(c.Line)
	default: // "stmt"; kinds were validated
		return g.StmtCriterion(c.Proc, c.Stmt)
	}
}

func (c CriterionRequest) canonical() string {
	switch c.Kind {
	case "printf":
		if c.Proc == "" {
			return "printf"
		}
		return "printf:" + c.Proc
	case "line":
		return fmt.Sprintf("line:%d", c.Line)
	default:
		return fmt.Sprintf("stmt:%s:%s", c.Proc, c.Stmt)
	}
}

func batchMode(mode string) (specslice.BatchMode, bool) {
	switch mode {
	case "", "poly":
		return specslice.BatchPoly, true
	case "mono":
		return specslice.BatchMono, true
	case "weiser":
		return specslice.BatchWeiser, true
	case "feature":
		return specslice.BatchFeature, true
	}
	return 0, false
}

func canonicalMode(mode string) string {
	if mode == "" {
		return "poly"
	}
	return mode
}
