// Package specslice is an executable-slicing toolkit for MicroC programs,
// reproducing "Specialization Slicing" (Aung, Horwitz, Joiner, Reps;
// PLDI 2014 / TOPLAS). It provides:
//
//   - Specialization (polyvariant executable) slicing — the paper's
//     contribution: an optimal, automaton-based slicer that may emit
//     multiple specialized copies of a procedure so the output slice is
//     executable, sound, complete, and minimal.
//   - The monovariant executable-slicing baselines (Binkley 1993,
//     Weiser-style) the paper compares against.
//   - Feature removal for multi-procedure programs (paper §7).
//   - Function-pointer / indirect-call support (paper §6.2).
//   - A MicroC front end, system-dependence-graph construction, and an
//     interpreter for validating slice behavior.
//
// Quick start:
//
//	prog, _ := specslice.Parse(src)
//	g, _ := prog.SDG()
//	slice, _ := g.SpecializationSlice(g.PrintfCriterion("main"))
//	out, _ := slice.Program()
//	fmt.Println(out.Source())
//
// For many slices of one program, use the engine, which builds the SDG
// encoding, Prestar indexes, reachable-configuration automaton, and
// summary edges once and serves requests concurrently:
//
//	eng, _ := prog.Engine()
//	results, stats := eng.SliceAll(reqs, specslice.BatchOptions{})
//
// The underlying machinery (pushdown systems, Prestar/Poststar, the
// minimal-reverse-deterministic automaton pipeline) lives in internal
// packages; this package is the stable surface.
package specslice

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/engine"
	"specslice/internal/feature"
	"specslice/internal/funcptr"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// Program is a parsed MicroC program.
type Program struct {
	ast *lang.Program
}

// Parse parses MicroC source text.
func Parse(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{ast: ast}, nil
}

// MustParse parses src and panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Source pretty-prints the program.
func (p *Program) Source() string { return lang.Print(p.ast) }

// ProcNames returns the program's procedure names, sorted. Services use
// them to derive version-chain (family) keys: two versions of an evolving
// program with the same procedure set can share incremental analysis
// state through Engine.Advance.
func (p *Program) ProcNames() []string {
	out := make([]string, 0, len(p.ast.Funcs))
	for _, f := range p.ast.Funcs {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// RunOptions configures program execution.
type RunOptions struct {
	// Input is the stream scanf reads from.
	Input []int64
	// MaxSteps bounds executed statements (default 1e7).
	MaxSteps int64
}

// RunResult reports an execution.
type RunResult struct {
	// Output holds one string per executed printf.
	Output []string
	// Steps is the number of statements executed.
	Steps int64
}

// Run interprets the program's main.
func (p *Program) Run(opts RunOptions) (*RunResult, error) {
	res, err := interp.Run(p.ast, interp.Options{Input: opts.Input, MaxSteps: opts.MaxSteps})
	if err != nil {
		return nil, err
	}
	return &RunResult{Output: res.Output, Steps: res.Steps}, nil
}

// EliminateIndirectCalls applies the paper's §6.2 transformation, returning
// a behaviorally equivalent program whose calls are all direct (indirect
// calls are routed through synthesized dispatch procedures). Programs
// without indirect calls are returned unchanged.
func (p *Program) EliminateIndirectCalls() (*Program, error) {
	out, _, err := funcptr.Transform(p.ast)
	if err != nil {
		return nil, err
	}
	return &Program{ast: out}, nil
}

// SDG builds the program's system dependence graph. Programs with indirect
// calls must call EliminateIndirectCalls first.
func (p *Program) SDG() (*SDG, error) {
	g, err := sdg.Build(p.ast)
	if err != nil {
		return nil, err
	}
	return &SDG{g: g, eng: engine.New(g)}, nil
}

// SDG is a system dependence graph ready for slicing. Every SDG is backed
// by a reusable engine that caches the PDS encoding, the
// reachable-configuration automaton, and the HRB summary edges across
// requests, so repeated slicing of one graph pays the setup cost once. All
// slicing methods are safe for concurrent use.
type SDG struct {
	g   *sdg.Graph
	eng *engine.Engine
}

// Engine exposes the SDG's cached batch-slicing engine.
func (s *SDG) Engine() *Engine { return &Engine{s: s} }

// Engine builds the program's SDG and returns its slicing engine — the
// entry point for serving many slice requests against one program.
func (p *Program) Engine() (*Engine, error) {
	g, err := p.SDG()
	if err != nil {
		return nil, err
	}
	return g.Engine(), nil
}

// Stats summarizes the graph.
type Stats struct {
	Procs     int
	Vertices  int
	Edges     int
	CallSites int
}

// Stats returns summary counts.
func (s *SDG) Stats() Stats {
	st := s.g.Statistics()
	return Stats{Procs: st.Procs, Vertices: st.Vertices, Edges: st.Edges, CallSites: st.CallSites}
}

// Criterion selects the slice's target program elements.
type Criterion struct {
	vertices []sdg.VertexID
	err      error
}

// PrintfCriterion selects the arguments of every printf in the named
// procedure (or everywhere when proc is "") — the criterion shape used
// throughout the paper.
func (s *SDG) PrintfCriterion(proc string) Criterion {
	vs := core.PrintfCriterion(s.g, proc)
	if len(vs) == 0 {
		return Criterion{err: fmt.Errorf("specslice: no printf in %q", proc)}
	}
	return Criterion{vertices: vs}
}

// LineCriterion selects every statement on the given source line. A call
// statement stands for the variables it uses and defines, so its criterion
// vertices are the call's actual-in and actual-out vertices (a bare call
// vertex depends on nothing and would slice to almost nothing).
func (s *SDG) LineCriterion(line int) Criterion {
	var vs []sdg.VertexID
	for _, v := range s.g.Vertices {
		if v.Stmt == nil || v.Stmt.Base().Pos.Line != line {
			continue
		}
		switch v.Kind {
		case sdg.KindStmt, sdg.KindPredicate:
			vs = append(vs, v.ID)
		case sdg.KindCall:
			site := s.g.Sites[v.Site]
			vs = append(vs, site.ActualIns...)
			vs = append(vs, site.ActualOuts...)
			if len(site.ActualIns)+len(site.ActualOuts) == 0 {
				vs = append(vs, v.ID)
			}
		}
	}
	if len(vs) == 0 {
		return Criterion{err: fmt.Errorf("specslice: no statement on line %d", line)}
	}
	return Criterion{vertices: vs}
}

// StmtCriterion selects statements whose printed form matches label in the
// named procedure (e.g. "prod = 1").
func (s *SDG) StmtCriterion(proc, label string) Criterion {
	vs := feature.ForwardCriterion(s.g, proc, label)
	if len(vs) == 0 {
		return Criterion{err: fmt.Errorf("specslice: no statement %q in %s", label, proc)}
	}
	return Criterion{vertices: vs}
}

func (c Criterion) configs() core.Configs {
	var out core.Configs
	for _, v := range c.vertices {
		out = append(out, core.Config{Vertex: v})
	}
	return out
}

// Slice is a computed executable slice (polyvariant or monovariant).
type Slice struct {
	src      *sdg.Graph
	variants []core.ProcVariant
	counts   map[string]int
	res      *core.Result // nil for monovariant slices
	spec     core.CriterionSpec
}

// SpecializationSlice computes the paper's polyvariant executable slice
// (Alg. 1). Criterion vertices in procedures other than main are sliced in
// all of their reachable calling contexts.
func (s *SDG) SpecializationSlice(c Criterion) (*Slice, error) {
	if c.err != nil {
		return nil, c.err
	}
	spec := s.specFor(c)
	res, err := s.eng.Specialize(spec)
	if err != nil {
		return nil, err
	}
	return &Slice{src: s.g, variants: res.Variants(), counts: res.VariantCounts(), res: res, spec: spec}, nil
}

// specFor chooses the configuration language of a criterion: explicit
// empty-stack configurations when every vertex is in main, otherwise all
// reachable calling contexts.
func (s *SDG) specFor(c Criterion) core.CriterionSpec {
	if s.allInMain(c) {
		return c.configs()
	}
	return core.Vertices(c.vertices)
}

func (s *SDG) allInMain(c Criterion) bool {
	for _, v := range c.vertices {
		if s.g.Procs[s.g.Vertices[v].Proc].Name != "main" {
			return false
		}
	}
	return true
}

// MonovariantSlice computes Binkley's monovariant executable slice.
func (s *SDG) MonovariantSlice(c Criterion) (*Slice, error) {
	if c.err != nil {
		return nil, c.err
	}
	return monoSlice(s.g, s.eng.Binkley(c.vertices).Variants()), nil
}

// WeiserSlice computes the Weiser-style executable slice baseline.
func (s *SDG) WeiserSlice(c Criterion) (*Slice, error) {
	if c.err != nil {
		return nil, c.err
	}
	return monoSlice(s.g, s.eng.Weiser(c.vertices).Variants()), nil
}

// RemoveFeature computes the paper's §7 feature removal: the program minus
// the forward slice of the criterion, specialized to stay executable.
func (s *SDG) RemoveFeature(c Criterion) (*Slice, error) {
	if c.err != nil {
		return nil, c.err
	}
	res, err := s.eng.RemoveFeature(c.vertices)
	if err != nil {
		return nil, err
	}
	return &Slice{src: s.g, variants: res.Variants(), counts: res.VariantCounts(), res: res}, nil
}

// ClosureSliceSize returns the number of program elements in the HRB
// closure slice from the criterion (the paper's baseline size metric).
func (s *SDG) ClosureSliceSize(c Criterion) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	return len(s.eng.Backward(c.vertices)), nil
}

// monoSlice wraps the variants of a monovariant slice, which has one
// variant per procedure.
func monoSlice(src *sdg.Graph, vars []core.ProcVariant) *Slice {
	counts := map[string]int{}
	for _, v := range vars {
		counts[v.Orig.Name]++
	}
	return &Slice{src: src, variants: vars, counts: counts}
}

// Program emits the slice as an executable MicroC program.
func (sl *Slice) Program() (*Program, error) {
	out, err := emit.Program(sl.src, sl.variants)
	if err != nil {
		return nil, err
	}
	return &Program{ast: out}, nil
}

// Source emits the slice directly as MicroC source text — the form the
// HTTP service returns to clients.
func (sl *Slice) Source() (string, error) {
	return emit.Source(sl.src, sl.variants)
}

// VariantCounts reports how many specialized versions each sliced
// procedure received (always 1 for monovariant slices).
func (sl *Slice) VariantCounts() map[string]int { return sl.counts }

// Vertices returns the total vertex count of the slice (counting
// replicated elements once per copy).
func (sl *Slice) Vertices() int {
	n := 0
	for _, v := range sl.variants {
		n += len(v.Vertices)
	}
	return n
}

// SelfCheck runs the paper's §8.3 reslicing validation (polyvariant slices
// only): the output, sliced again, must yield the same configuration
// language modulo renaming.
func (sl *Slice) SelfCheck() error {
	if sl.res == nil || sl.spec == nil {
		return errors.New("specslice: self-check applies to specialization slices")
	}
	return sl.res.ReslicingCheck(sl.spec)
}

// Release is a no-op, kept for callers written when a polyvariant slice
// held pooled graph storage. A Slice now holds none: it keeps the
// variants it emits from, and SelfCheck builds the specialized SDG on
// request.
func (sl *Slice) Release() {}

// Engine is the reusable batch-slicing surface over one SDG: the expensive
// per-program analysis state (PDS encoding and Prestar rule indexes,
// reachable-configuration automaton, summary edges) is built once and
// shared by every request. All methods are safe for concurrent use, so one
// engine can serve many goroutines — the workload of interactive tooling
// that issues repeated queries against a single program.
type Engine struct {
	s *SDG
}

// SDG returns the graph the engine serves.
func (e *Engine) SDG() *SDG { return e.s }

// AdvanceStats reports how much analysis state Engine.Advance reused.
type AdvanceStats struct {
	// ProcsReused / ProcsRebuilt partition the new program's procedures:
	// reused ones had their dependence graphs copied from the previous
	// version instead of recomputed.
	ProcsReused  int `json:"procs_reused"`
	ProcsRebuilt int `json:"procs_rebuilt"`
	// SummaryEdgesReused counts inherited summary edges (call sites whose
	// callee subtree the edit did not touch).
	SummaryEdgesReused int `json:"summary_edges_reused"`
}

// Advance returns a new engine for p — typically the previous program
// after a small edit — reusing every untouched part of this engine's
// analysis state: unchanged procedures' dependence graphs are copied, not
// recomputed, and summary edges of call sites whose callee subtree is
// unchanged are inherited, so only the edit's dirty region is reanalyzed.
// The advanced engine is equivalent to p.Engine() built from scratch (the
// incremental oracle holds slices to byte-identical outputs); this engine
// is untouched and keeps serving its own version, so Advance is safe to
// call while other goroutines slice through it. Like Program.SDG, p must
// contain only direct calls (EliminateIndirectCalls first).
func (e *Engine) Advance(p *Program) (*Engine, AdvanceStats, error) {
	neng, delta, err := e.s.eng.Advance(p.ast)
	if err != nil {
		return nil, AdvanceStats{}, err
	}
	return &Engine{s: &SDG{g: neng.Graph(), eng: neng}}, AdvanceStats{
		ProcsReused:        delta.ProcsReused,
		ProcsRebuilt:       delta.ProcsRebuilt,
		SummaryEdgesReused: delta.SummaryEdgesSeeded,
	}, nil
}

// Warm eagerly builds every cache so subsequent requests pay only
// per-query costs. Calling it is optional; caches also fill lazily.
func (e *Engine) Warm() error { return e.s.eng.Warm() }

// BuildStats is the JSON-stable cold-build phase breakdown of an engine's
// graph: the interprocedural mod/ref analysis with its sub-phases, the
// procedure-parallel PDG construction, and the interprocedural wiring, plus
// the worker-pool width the parallel phases ran at. Durations marshal as
// integer nanoseconds. Advanced engines (version chains) report zeros —
// their graphs were never built from scratch.
type BuildStats = sdg.BuildStats

// BuildStats reports the cold-build phase timings of this engine's graph.
func (e *Engine) BuildStats() BuildStats { return e.s.eng.BuildStats() }

// Footprint estimates the bytes retained by the engine's cached analysis
// state (graph, encoding, reachable-configuration automaton), warming the
// caches first. Long-running services use it to budget content-addressed
// engine caches by total bytes.
func (e *Engine) Footprint() int64 { return e.s.eng.Footprint() }

// Snapshot serializes the engine's analysis state — the SDG with its
// complete summary-edge set, as normalized source plus the graph structure
// — into the versioned binary format the persistent store writes to disk.
// LoadEngineSnapshot restores it; the restored engine serves slices
// byte-identical to a cold build of the same program.
func (e *Engine) Snapshot() ([]byte, error) { return e.s.eng.Snapshot() }

// LoadEngineSnapshot reconstructs an engine from Engine.Snapshot bytes.
// Corrupt or truncated input returns an error — the decoder validates
// every index and never panics, so snapshots read back from untrusted
// storage degrade to an error and a cold rebuild, not a crash.
func LoadEngineSnapshot(data []byte) (*Engine, error) {
	eng, err := engine.FromSnapshot(data)
	if err != nil {
		return nil, err
	}
	return &Engine{s: &SDG{g: eng.Graph(), eng: eng}}, nil
}

// SpecializationSlice computes the paper's polyvariant executable slice
// through the cached engine state.
func (e *Engine) SpecializationSlice(c Criterion) (*Slice, error) {
	return e.s.SpecializationSlice(c)
}

// MonovariantSlice computes Binkley's monovariant executable slice.
func (e *Engine) MonovariantSlice(c Criterion) (*Slice, error) { return e.s.MonovariantSlice(c) }

// WeiserSlice computes the Weiser-style executable slice baseline.
func (e *Engine) WeiserSlice(c Criterion) (*Slice, error) { return e.s.WeiserSlice(c) }

// RemoveFeature computes the paper's §7 feature removal.
func (e *Engine) RemoveFeature(c Criterion) (*Slice, error) { return e.s.RemoveFeature(c) }

// BatchMode selects the slicer a batch request runs.
type BatchMode int

const (
	// BatchPoly runs the specialization slicer (default).
	BatchPoly BatchMode = iota
	// BatchMono runs Binkley's monovariant slicer.
	BatchMono
	// BatchWeiser runs the Weiser-style baseline.
	BatchWeiser
	// BatchFeature runs §7 feature removal.
	BatchFeature
)

// BatchRequest is one criterion in a SliceAll batch.
type BatchRequest struct {
	Criterion Criterion
	Mode      BatchMode
	// Label identifies the request in results and defaults to its index.
	Label string
}

// BatchResult is the outcome of one batch request: exactly one of Slice or
// Err is set.
type BatchResult struct {
	Label    string
	Slice    *Slice
	Err      error
	Duration time.Duration
}

// BatchOptions configures SliceAll.
type BatchOptions struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// BatchStats aggregates a SliceAll run: request and failure counts, the
// pool width, the end-to-end Wall time, the summed per-request Work time
// (Work/Wall approximates the achieved parallelism), and the polyvariant
// requests' Phases summed across the batch.
type BatchStats = engine.BatchStats

// Timings is the JSON-stable per-phase time breakdown of polyvariant slice
// requests (the paper's Fig. 21). Durations marshal as integer
// nanoseconds.
type Timings = core.Timings

// SliceAll serves a batch of slice requests through a worker pool, sharing
// the engine's cached analysis state across all of them. Results come back
// in request order; a failing criterion fails only its own request.
func (e *Engine) SliceAll(reqs []BatchRequest, opts BatchOptions) ([]BatchResult, BatchStats) {
	s := e.s
	ereqs := make([]engine.Request, len(reqs))
	specs := make([]core.CriterionSpec, len(reqs))
	for i, r := range reqs {
		label := r.Label
		if label == "" {
			label = fmt.Sprintf("#%d", i)
		}
		ereqs[i] = engine.Request{Label: label, Err: r.Criterion.err}
		if r.Criterion.err != nil {
			continue
		}
		switch r.Mode {
		case BatchPoly:
			ereqs[i].Mode = engine.ModePoly
			specs[i] = s.specFor(r.Criterion)
			ereqs[i].Spec = specs[i]
		case BatchMono:
			ereqs[i].Mode = engine.ModeMono
			ereqs[i].Vertices = r.Criterion.vertices
		case BatchWeiser:
			ereqs[i].Mode = engine.ModeWeiser
			ereqs[i].Vertices = r.Criterion.vertices
		case BatchFeature:
			ereqs[i].Mode = engine.ModeFeature
			ereqs[i].Vertices = r.Criterion.vertices
		default:
			ereqs[i].Err = fmt.Errorf("specslice: unknown batch mode %d", r.Mode)
		}
	}

	resps, estats := s.eng.SliceAll(ereqs, engine.BatchOptions{Workers: opts.Workers})
	out := make([]BatchResult, len(resps))
	for i, resp := range resps {
		br := BatchResult{Label: resp.Label, Err: resp.Err, Duration: resp.Duration}
		if resp.Err == nil {
			switch {
			case resp.Poly != nil:
				br.Slice = &Slice{src: s.g, variants: resp.Poly.Variants(), counts: resp.Poly.VariantCounts(), res: resp.Poly, spec: specs[i]}
			case resp.Mono != nil:
				br.Slice = monoSlice(s.g, resp.Mono.Variants())
			}
		}
		out[i] = br
	}
	return out, estats
}
