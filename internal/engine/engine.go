// Package engine turns the one-shot slicing pipeline into a reusable,
// concurrency-safe service over a single program: the SDG encoding (PDS
// rules + Prestar indexes), the reachable-configuration automaton, and the
// HRB summary edges are each computed once, on first use, and cached, after
// which any number of goroutines may issue slice requests — polyvariant,
// monovariant, Weiser, feature removal, or closure — against the shared
// state. SliceAll fans a batch of criteria out across a worker pool and
// reports per-request results plus aggregate timings.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specslice/internal/core"
	"specslice/internal/feature"
	"specslice/internal/lang"
	"specslice/internal/mono"
	"specslice/internal/par"
	"specslice/internal/pds"
	"specslice/internal/sdg"
	"specslice/internal/slice"
)

// Engine caches the per-program analysis state shared by all slice
// requests. Create one with New and reuse it for every query against the
// same SDG; all methods are safe for concurrent use.
type Engine struct {
	g *sdg.Graph

	encOnce sync.Once
	enc     *core.Encoding
	// built is enc once encOnce has set it, for readers that must not
	// build it; sizes are the Prestar high-water marks of the engine this
	// one advanced from, which its encoding's first query reserves.
	built atomic.Pointer[core.Encoding]
	sizes pds.ArenaSizes

	sumOnce sync.Once
	sums    *slice.Summaries
}

// New returns an engine serving slice requests against g. The graph must
// not be mutated afterwards; the engine only reads it.
func New(g *sdg.Graph) *Engine { return &Engine{g: g} }

// Advance returns a new engine for newProg that reuses every untouched
// part of e's graph: procedure dependence graphs of unchanged procedures
// are copied instead of recomputed (sdg.Advance). The advanced engine is
// indistinguishable from one built from scratch on newProg — the
// incremental equivalence oracle holds poly and mono slices to
// byte-identical outputs. e itself is untouched and keeps serving its own
// program version; Advance may run while other goroutines slice through e.
func (e *Engine) Advance(newProg *lang.Program) (*Engine, *sdg.DeltaStats, error) {
	g2, delta, err := sdg.Advance(e.g, newProg)
	if err != nil {
		return nil, nil, err
	}
	next := New(g2)
	// A version chain serves about one query per version, so hand the
	// next engine this one's Prestar sizes, or the ones it inherited.
	next.sizes = e.sizes
	if enc := e.built.Load(); enc != nil {
		next.sizes = enc.PrestarSizes()
	}
	return next, delta, nil
}

// Graph returns the underlying SDG.
func (e *Engine) Graph() *sdg.Graph { return e.g }

// BuildStats reports the phase timings and worker-pool width of the cold
// build that produced the engine's graph (zero for advanced engines,
// whose graphs were not built from scratch).
func (e *Engine) BuildStats() sdg.BuildStats { return e.g.BuildStats() }

// Encoding returns the cached PDS encoding, building it on first use.
func (e *Engine) Encoding() *core.Encoding {
	e.encOnce.Do(func() {
		e.enc = core.Encode(e.g)
		e.enc.SizePrestar(e.sizes)
		e.built.Store(e.enc)
	})
	return e.enc
}

// Warm eagerly builds the encoding and the reachable configurations so
// that polyvariant and feature-removal requests pay only per-query costs.
// The summary edges are not part of it: the first monovariant or closure
// request pays their fixpoint (EnsureSummaryEdges).
func (e *Engine) Warm() error {
	_, err := e.Encoding().Reachable()
	return err
}

// EnsureSummaryEdges returns the graph's HRB summary edges, computing them
// exactly once, on the first request that needs them (Binkley, Backward).
// The computation only reads the graph, so it runs alongside any other
// request.
func (e *Engine) EnsureSummaryEdges() *slice.Summaries {
	e.sumOnce.Do(func() { e.sums = slice.ComputeSummaries(e.g) })
	return e.sums
}

// Specialize runs the polyvariant specialization slicer (paper Alg. 1)
// against the cached encoding.
func (e *Engine) Specialize(spec core.CriterionSpec) (*core.Result, error) {
	return core.SpecializeWithEncoding(e.Encoding(), spec)
}

// Backward computes the HRB two-phase backward closure slice.
func (e *Engine) Backward(criterion []sdg.VertexID) slice.VSet {
	return slice.Backward(e.g, e.EnsureSummaryEdges(), criterion)
}

// Binkley computes the monovariant executable slice baseline.
func (e *Engine) Binkley(criterion []sdg.VertexID) *mono.Result {
	return mono.Binkley(e.g, e.EnsureSummaryEdges(), criterion)
}

// Weiser computes the Weiser-style executable slice baseline.
func (e *Engine) Weiser(criterion []sdg.VertexID) *mono.Result {
	return mono.Weiser(e.g, criterion)
}

// RemoveFeature computes the paper's §7 feature removal.
func (e *Engine) RemoveFeature(criterion []sdg.VertexID) (*core.Result, error) {
	return feature.RemoveWithEncoding(e.g, e.Encoding(), criterion)
}

// Footprint estimates, in bytes, the heap retained by the engine's cached
// analysis state: the SDG itself, the PDS encoding with its Prestar rule
// indexes, the live call graph (at its exact slice capacities) and the
// reachable-configuration automaton read from it. The caches are built
// first (Warm) so the estimate is stable; a program whose warm fails (e.g.
// no main) is still accounted for its graph and encoding. The per-element
// constants are deliberately coarse — the number exists so
// content-addressed engine caches can evict by an additive byte budget,
// not for profiling.
func (e *Engine) Footprint() int64 {
	_ = e.Warm()
	// vertexBytes and edgeBytes come from the heap built graphs retain:
	// on the 8 Siemens suites and gzip, once sites and procedures are
	// charged their constants below, a vertex cost 86–108 bytes (117 on
	// tcas, the smallest) when each edge was also charged its in-list
	// copy; with edges charged their out-list copy alone, the estimate
	// reads 0.93–1.09 of the retained heap on that corpus. ruleBytes and
	// transBytes come from the heap the encoding and the reachable
	// automaton alone retain on the same corpus: 43–48 bytes per rule (44
	// overall; locations are under 1% of rules), and 37–45 bytes per
	// transition beyond the live call graph (39 overall).
	// TestFootprintMatchesRetainedHeap holds the whole estimate within 25%
	// of a warmed engine's heap. The HRB summary edges an engine computes
	// later, on its first monovariant request, are not charged, nor are
	// the graph's in lists, laid out on the same request.
	const (
		vertexBytes = 96  // Vertex value + out CSR offset + share of per-procedure state
		edgeBytes   = 24  // one copy in the out lists
		siteBytes   = 176 // *Site + struct
		procBytes   = 176 // *Proc + struct
		idBytes     = 8   // one VertexID/SiteID slot in a slice
		ruleBytes   = 44  // 24-byte Rule + its Prestar CSR index entry
		locBytes    = 96  // LocOfFO entry + per-location bookkeeping
		stateBytes  = 48  // out slice header + bitset slots
		transBytes  = 39  // out entry + dedup index entry
	)
	g := e.g
	n := int64(g.NumVertices())*vertexBytes + int64(g.NumEdges())*edgeBytes
	for _, s := range g.Sites {
		n += siteBytes + int64(len(s.ActualIns)+len(s.ActualOuts))*idBytes
	}
	for _, p := range g.Procs {
		n += procBytes + int64(len(p.Vertices)+len(p.FormalIns)+len(p.FormalOuts)+len(p.Sites))*idBytes
	}
	enc := e.Encoding()
	n += int64(len(enc.PDS.Rules))*ruleBytes + int64(len(enc.LocOfFO))*locBytes
	if reach, err := enc.Reachable(); err == nil {
		n += int64(reach.NumStates())*stateBytes + int64(reach.NumTransitions())*transBytes
		n += enc.CallGraphBytes()
	}
	// Interned Prestar scratch survives between batches (pooled arenas
	// keep their buckets), so it is part of what a byte-budgeted cache
	// retains by holding this engine. Freshly built engines have not run
	// a query yet, so charge at least the one-arena steady-state
	// provision — otherwise the LRU charges engines before their scratch
	// exists and under-evicts once traffic warms them.
	n += max(enc.ScratchBytes(), enc.ScratchProvision())
	return n
}

// Mode selects the slicer a batch request runs.
type Mode int

const (
	ModePoly Mode = iota
	ModeMono
	ModeWeiser
	ModeFeature
)

var modeNames = [...]string{"poly", "mono", "weiser", "feature"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Request is one criterion in a batch.
type Request struct {
	// Label identifies the request in results (free-form).
	Label string
	Mode  Mode
	// Spec drives ModePoly requests.
	Spec core.CriterionSpec
	// Vertices drives ModeMono/ModeWeiser/ModeFeature requests.
	Vertices []sdg.VertexID
	// Err, when non-nil, short-circuits the request: criterion resolution
	// failed upstream and the error is reported in the matching Response.
	Err error
}

// Response is the outcome of one batch request.
type Response struct {
	Index    int
	Label    string
	Mode     Mode
	Poly     *core.Result // ModePoly and ModeFeature results
	Mono     *mono.Result // ModeMono and ModeWeiser results
	Err      error
	Duration time.Duration
}

// BatchOptions configures SliceAll.
type BatchOptions struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// BatchStats aggregates a SliceAll run. It is also the public
// specslice.BatchStats and the "stats" object of the HTTP service's slice
// response, so the JSON tags and the field order are the wire schema.
type BatchStats struct {
	Requests int `json:"requests"`
	Failed   int `json:"failed"`
	Workers  int `json:"workers"`
	// Wall is the end-to-end batch time; Work is the sum of per-request
	// durations (Work/Wall ≈ achieved parallelism).
	Wall time.Duration `json:"wall_ns"`
	Work time.Duration `json:"work_ns"`
	// Phases sums the polyvariant requests' per-phase timings (the paper's
	// Fig. 21 breakdown: Prestar, AutomatonOps with its determinize and
	// minimize sub-phases, Readout) across the batch.
	Phases core.Timings `json:"phases"`
}

// SliceAll serves every request, fanning them out across a worker pool
// (par.For; a one-request batch runs inline on the caller's goroutine),
// and returns responses in request order plus aggregate timings.
// Individual request failures land in their Response; the batch always
// completes.
func (e *Engine) SliceAll(reqs []Request, opts BatchOptions) ([]Response, BatchStats) {
	workers := min(par.Workers(opts.Workers), len(reqs))
	stats := BatchStats{Requests: len(reqs), Workers: workers}
	if len(reqs) == 0 {
		return nil, stats
	}

	// Pay the shared setup (the encoding) once, outside the pool, so
	// worker timings are pure per-request cost.
	e.Encoding()

	t0 := time.Now()
	out := make([]Response, len(reqs))
	par.For(workers, len(reqs), func(i int) { out[i] = e.serve(i, reqs[i]) })

	stats.Wall = time.Since(t0)
	for _, r := range out {
		stats.Work += r.Duration
		if r.Err != nil {
			stats.Failed++
		}
		if r.Poly != nil {
			stats.Phases.Add(r.Poly.Timings)
		}
	}
	return out, stats
}

func (e *Engine) serve(i int, req Request) (resp Response) {
	resp = Response{Index: i, Label: req.Label, Mode: req.Mode}
	t0 := time.Now()
	defer func() { resp.Duration = time.Since(t0) }()
	if req.Err != nil {
		resp.Err = req.Err
		return resp
	}
	switch req.Mode {
	case ModePoly:
		if req.Spec == nil {
			resp.Err = fmt.Errorf("engine: poly request %d has no criterion spec", i)
			return resp
		}
		resp.Poly, resp.Err = e.Specialize(req.Spec)
	case ModeMono:
		resp.Mono = e.Binkley(req.Vertices)
	case ModeWeiser:
		resp.Mono = e.Weiser(req.Vertices)
	case ModeFeature:
		resp.Poly, resp.Err = e.RemoveFeature(req.Vertices)
	default:
		resp.Err = fmt.Errorf("engine: unknown mode %v", req.Mode)
	}
	return resp
}
