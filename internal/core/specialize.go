package core

import (
	"fmt"
	"time"

	"specslice/internal/fsa"
	"specslice/internal/sdg"
)

// Timings records where the algorithm spent its time (paper Fig. 21). It
// is also the public specslice.Timings and the "phases" object of the
// HTTP service, so the JSON tags and the field order are the wire schema:
// durations marshal as integer nanoseconds, and internal/server pins the
// keys in order.
type Timings struct {
	Encode       time.Duration `json:"encode_ns"`
	Prestar      time.Duration `json:"prestar_ns"`
	AutomatonOps time.Duration `json:"automaton_ns"` // fused reverse/determinize/minimize/reverse chain
	// Sub-phases of AutomatonOps, as reported by the fused fsa.MRD chain.
	AutomatonDeterminize time.Duration `json:"determinize_ns"`
	AutomatonMinimize    time.Duration `json:"minimize_ns"`
	Readout              time.Duration `json:"readout_ns"`
	Total                time.Duration `json:"total_ns"`
}

// Add accumulates o into t (batch aggregation of per-request timings).
func (t *Timings) Add(o Timings) {
	t.Encode += o.Encode
	t.Prestar += o.Prestar
	t.AutomatonOps += o.AutomatonOps
	t.AutomatonDeterminize += o.AutomatonDeterminize
	t.AutomatonMinimize += o.AutomatonMinimize
	t.Readout += o.Readout
	t.Total += o.Total
}

// Result is the output of the specialization-slicing algorithm.
type Result struct {
	Source *sdg.Graph
	Enc    *Encoding

	// A1 accepts the configurations of the stack-configuration slice
	// (as a plain FSA over encoding symbols); A6 is its minimal
	// reverse-deterministic form.
	A1, A6 *fsa.FSA

	// StatesBeforeDeterminize / StatesAfterDeterminize support the paper's
	// §4.2 observation that determinize shrinks in practice.
	StatesBeforeDeterminize int
	StatesAfterDeterminize  int

	Timings Timings

	// variants is the readout's output, in R's canonical procedure order
	// (Variants); variantOf maps each A6 state to its variant's index + 1,
	// 0 for the initial state, for BuildR.
	variants  []ProcVariant
	variantOf []int32
}

// ClosureSlice computes only the stack-configuration slice (Alg. 1 lines
// 1–3): it returns the automaton A1 and the projection of its
// configurations onto PDG vertices, which coincides with the HRB closure
// slice when spec is SDGVertices. Unlike Specialize, it accepts criteria —
// such as arbitrary-stack SDGVertices — whose partition would not satisfy
// Defn. 2.10's one-procedure-per-element property.
func ClosureSlice(g *sdg.Graph, spec CriterionSpec) (*fsa.FSA, map[sdg.VertexID]bool, error) {
	enc := Encode(g)
	a0, err := spec.buildQuery(enc)
	if err != nil {
		return nil, nil, err
	}
	a1 := PAutomatonToFSA(enc.prestar.PrestarInPlace(a0))
	elems := map[sdg.VertexID]bool{}
	a1.Each(func(t fsa.Transition) {
		if a1.IsStart(t.From) && !enc.IsSiteSym(t.Sym) {
			elems[enc.SymVertex(t.Sym)] = true
		}
	})
	return a1, elems, nil
}

// Specialize runs the specialization-slicing algorithm (paper Alg. 1) on g
// with the given criterion, building a fresh encoding. Callers issuing many
// slice requests against one graph should Encode once and use
// SpecializeWithEncoding (or the engine package, which manages the cache).
func Specialize(g *sdg.Graph, spec CriterionSpec) (*Result, error) {
	t0 := time.Now()
	enc := Encode(g)
	encodeTime := time.Since(t0)
	res, err := SpecializeWithEncoding(enc, spec)
	if err != nil {
		return nil, err
	}
	res.Timings.Encode = encodeTime
	res.Timings.Total += encodeTime
	return res, nil
}

// SpecializeWithEncoding runs Alg. 1 against a prebuilt encoding of the
// SDG, skipping the encode phase. The encoding is read-only here, so many
// goroutines may share one encoding concurrently.
func SpecializeWithEncoding(enc *Encoding, spec CriterionSpec) (*Result, error) {
	res := &Result{Source: enc.G, Enc: enc}
	t0 := time.Now()

	a0, err := spec.buildQuery(enc)
	if err != nil {
		return nil, err
	}

	// The query and the Prestar result are this request's own, so the
	// saturation and the conversion work in place.
	t1 := time.Now()
	a1 := enc.prestar.PrestarInPlace(a0)
	res.Timings.Prestar = time.Since(t1)
	res.A1 = PAutomatonToFSA(a1)

	if err := res.finish(); err != nil {
		return nil, err
	}
	res.Timings.Total = time.Since(t0)
	return res, nil
}

// SpecializeFromSliceAutomaton runs Alg. 1 from line 4 on a precomputed
// stack-configuration-slice automaton (a plain FSA over enc's symbols whose
// words are configuration strings vertex·site*). Feature removal (Alg. 2)
// enters the pipeline here with its subtracted configuration language.
func SpecializeFromSliceAutomaton(g *sdg.Graph, enc *Encoding, a1 *fsa.FSA) (*Result, error) {
	res := &Result{Source: g, Enc: enc, A1: a1.Trim()}
	t0 := time.Now()
	if err := res.finish(); err != nil {
		return nil, err
	}
	res.Timings.Total = time.Since(t0)
	return res, nil
}

// finish performs the automaton transformations (lines 4–8) and the SDG
// read-out (lines 9–24). The reverse→determinize→minimize→reverse chain
// runs fused (fsa.MRD): the reversal folds into the subset construction's
// adjacency and the minimal DFA is already epsilon-free, so neither the
// reversed copy nor a separate epsilon-removal pass is materialized.
func (res *Result) finish() error {
	t2 := time.Now()
	res.StatesBeforeDeterminize = res.A1.NumStates()
	a6, st := fsa.MRD(res.A1)
	res.StatesAfterDeterminize = st.DetStates
	res.A6 = a6
	res.Timings.AutomatonDeterminize = st.Determinize
	res.Timings.AutomatonMinimize = st.Minimize
	res.Timings.AutomatonOps = time.Since(t2)

	if !a6.IsReverseDeterministic() {
		return fmt.Errorf("core: internal error: A6 is not reverse-deterministic")
	}

	t3 := time.Now()
	if err := res.readout(); err != nil {
		return err
	}
	res.Timings.Readout = time.Since(t3)
	return nil
}

// CheckNoMismatches verifies Cor. 3.19 on an SDG: at every non-library
// call-site, the actuals and the callee's formals agree exactly in both
// directions.
func CheckNoMismatches(g *sdg.Graph) error {
	for _, site := range g.Sites {
		if site.Lib {
			continue
		}
		calleeIdx, ok := g.ProcByName[site.Callee]
		if !ok {
			return fmt.Errorf("site %d calls unknown proc %q", site.ID, site.Callee)
		}
		callee := g.Procs[calleeIdx]
		if len(site.ActualIns) != len(callee.FormalIns) {
			return fmt.Errorf("site %d -> %s: %d actual-ins vs %d formal-ins",
				site.ID, site.Callee, len(site.ActualIns), len(callee.FormalIns))
		}
		if len(site.ActualOuts) != len(callee.FormalOuts) {
			return fmt.Errorf("site %d -> %s: %d actual-outs vs %d formal-outs",
				site.ID, site.Callee, len(site.ActualOuts), len(callee.FormalOuts))
		}
		for _, ai := range site.ActualIns {
			if _, ok := callee.MatchFormalIn(g, &g.Vertices[ai]); !ok {
				return fmt.Errorf("site %d -> %s: unmatched actual-in %s", site.ID, site.Callee, g.VertexString(ai))
			}
		}
		for _, ao := range site.ActualOuts {
			if _, ok := callee.MatchFormalOut(g, &g.Vertices[ao]); !ok {
				return fmt.Errorf("site %d -> %s: unmatched actual-out %s", site.ID, site.Callee, g.VertexString(ao))
			}
		}
	}
	return nil
}

// VariantCounts returns, per source procedure in the slice, how many
// specialized versions were created (paper Fig. 18).
func (r *Result) VariantCounts() map[string]int {
	out := map[string]int{}
	for _, v := range r.variants {
		out[v.Orig.Name]++
	}
	return out
}

// ProcVariant describes one specialized procedure for program emission
// (emit.Program): which of its source procedure's vertices it keeps, and
// which specialized callee each of its call sites invokes. Both are lists
// over the source graph's IDs, so the emitter loads a variant in time
// proportional to its size.
type ProcVariant struct {
	Orig *sdg.Proc
	Name string
	// Vertices lists the source vertex IDs included in this variant, each
	// once; len(Vertices) is the variant's size.
	Vertices []sdg.VertexID
	// Calls lists, for each retained non-library call site of the variant,
	// the name of its specialized callee.
	Calls []CallTarget
}

// CallTarget binds one source call site to the specialized callee a
// variant calls there.
type CallTarget struct {
	Site   sdg.SiteID
	Callee string
}

// Variants returns the emission view of the result: the procedure
// variants of the specialized SDG in R's canonical order (source procedure,
// then lexicographic vertex list), as the readout built them. Callers must
// not modify the list.
func (r *Result) Variants() []ProcVariant { return r.variants }
