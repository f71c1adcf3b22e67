package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"specslice"
	"specslice/internal/server"
)

// The correctness gate: every kept response must match, byte for byte, a
// fresh single-process slice of the same program and criteria computed
// through the public specslice API. The server's timings and cache flags
// legitimately differ, so only what a client consumes is compared: each
// criterion's emitted source, variant counts, vertex count and whether it
// failed.

// sliceView is the compared part of one criterion's result.
type sliceView struct {
	Source        string         `json:"source"`
	VariantCounts map[string]int `json:"variant_counts"`
	Vertices      int            `json:"vertices"`
	Failed        bool           `json:"failed"`
}

func viewOf(r server.SliceResult) sliceView {
	return sliceView{Source: r.Source, VariantCounts: r.VariantCounts, Vertices: r.Vertices, Failed: r.Error != ""}
}

// diffResults returns "" when got matches want, else what differs.
func diffResults(got, want []server.SliceResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(viewOf(got[i]))
		w, _ := json.Marshal(viewOf(want[i]))
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("criterion %d (%s): got %.120s…, want %.120s…", i, want[i].Label, g, w)
		}
	}
	return ""
}

// referenceSlicer slices programs the way a fresh single process would,
// building each distinct program's engine once.
type referenceSlicer struct {
	engines map[string]*specslice.Engine
}

func newReferenceSlicer() *referenceSlicer {
	return &referenceSlicer{engines: map[string]*specslice.Engine{}}
}

// slice returns the results a single process computes for program and
// criteria: parse, normalize, re-parse the normalized text, eliminate
// indirect calls, build, resolve, slice, emit.
func (rs *referenceSlicer) slice(program string, criteria []server.CriterionRequest) ([]server.SliceResult, error) {
	prog, err := specslice.Parse(program)
	if err != nil {
		return nil, err
	}
	norm := prog.Source()
	eng, ok := rs.engines[norm]
	if !ok {
		canon, err := specslice.Parse(norm)
		if err != nil {
			return nil, err
		}
		p, err := canon.EliminateIndirectCalls()
		if err != nil {
			return nil, err
		}
		if eng, err = p.Engine(); err != nil {
			return nil, err
		}
		rs.engines[norm] = eng
	}
	g := eng.SDG()
	reqs := make([]specslice.BatchRequest, len(criteria))
	for i, c := range criteria {
		reqs[i] = specslice.BatchRequest{Criterion: resolvePublic(g, c), Mode: publicMode(c.Mode), Label: canonicalLabel(c)}
	}
	results, _ := eng.SliceAll(reqs, specslice.BatchOptions{Workers: 1})
	out := make([]server.SliceResult, len(results))
	for i, r := range results {
		out[i] = server.SliceResult{Label: r.Label}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
			continue
		}
		out[i].VariantCounts = r.Slice.VariantCounts()
		out[i].Vertices = r.Slice.Vertices()
		if out[i].Source, err = r.Slice.Source(); err != nil {
			out[i].Error = err.Error()
		}
		r.Slice.Release()
	}
	return out, nil
}

func resolvePublic(g *specslice.SDG, c server.CriterionRequest) specslice.Criterion {
	switch c.Kind {
	case "printf":
		return g.PrintfCriterion(c.Proc)
	case "line":
		return g.LineCriterion(c.Line)
	default:
		return g.StmtCriterion(c.Proc, c.Stmt)
	}
}

func publicMode(mode string) specslice.BatchMode {
	switch mode {
	case "mono":
		return specslice.BatchMono
	case "weiser":
		return specslice.BatchWeiser
	case "feature":
		return specslice.BatchFeature
	}
	return specslice.BatchPoly
}

// canonicalLabel is the label the server gives an unlabelled criterion.
func canonicalLabel(c server.CriterionRequest) string {
	if c.Label != "" {
		return c.Label
	}
	switch c.Kind {
	case "printf":
		if c.Proc == "" {
			return "printf"
		}
		return "printf:" + c.Proc
	case "line":
		return fmt.Sprintf("line:%d", c.Line)
	}
	return fmt.Sprintf("stmt:%s:%s", c.Proc, c.Stmt)
}

// gate checks every kept body against the reference slicer and returns
// one line per mismatch, naming the op.
func gate(in *inputs, kept map[int][]byte) []string {
	idx := make([]int, 0, len(kept))
	for i := range kept {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	ref := newReferenceSlicer()
	var bad []string
	for _, i := range idx {
		o := in.ops[i]
		var resp server.SliceResponse
		if err := json.Unmarshal(kept[i], &resp); err != nil {
			bad = append(bad, fmt.Sprintf("op %d: undecodable body: %v", i, err))
			continue
		}
		want, err := ref.slice(in.sources[o.program], o.criteria)
		if err != nil {
			bad = append(bad, fmt.Sprintf("op %d: reference slice failed: %v", i, err))
			continue
		}
		if d := diffResults(resp.Results, want); d != "" {
			bad = append(bad, fmt.Sprintf("op %d: %s", i, d))
		}
	}
	return bad
}
