package core

import (
	"fmt"
	"strings"
	"testing"

	"specslice/internal/fsa"
	"specslice/internal/lang"
	"specslice/internal/sdg"
)

// TestReadoutRejectsMalformedA6 feeds hand-built automata through
// ReadoutOnly, one per internal-error check of the readout that no
// automaton from fsa.MRD reaches, and requires each check's error. The
// automata run over Fig. 1's encoding: q0 is the initial state, m is main's
// variant (final) and x is the state under test; site is main's first call
// of p.
func TestReadoutRejectsMalformedA6(t *testing.T) {
	g := sdg.MustBuild(lang.MustParse(fig1Src))
	enc := Encode(g)
	main, p := g.Procs[g.ProcByName["main"]], g.Procs[g.ProcByName["p"]]
	site := g.SiteCalls("p")[0]
	const q0, m, x = 0, 1, 2
	// build returns an A6 whose main variant holds main's entry plus
	// mainVerts, whose state x holds xVerts, and whose only call
	// transition is x --site--> m.
	build := func(mainVerts, xVerts []sdg.VertexID) *fsa.FSA {
		a := fsa.New(3)
		a.SetStart(q0)
		a.SetFinal(m)
		a.Add(q0, enc.VertexSym(main.Entry), m)
		for _, v := range mainVerts {
			a.Add(q0, enc.VertexSym(v), m)
		}
		for _, v := range xVerts {
			a.Add(q0, enc.VertexSym(v), x)
		}
		a.Add(x, enc.SiteSym(site.ID), m)
		return a
	}
	cases := []struct {
		name string
		a6   *fsa.FSA
		want string
	}{
		{
			// main keeps p's first actual-in at site; p keeps no formal.
			name: "parameter mismatch",
			a6:   build([]sdg.VertexID{site.CallVertex, site.ActualIns[0]}, []sdg.VertexID{p.Entry}),
			want: "core: parameter mismatch: p has no formal for " + g.VertexString(site.ActualIns[0]),
		},
		{
			name: "call transition from a state with no vertices",
			a6:   build([]sdg.VertexID{site.CallVertex}, nil),
			want: fmt.Sprintf("core: internal error: state %d has call transitions but no vertices", x),
		},
		{
			// main does not keep the call vertex of site.
			name: "caller lacks the site",
			a6:   build(nil, []sdg.VertexID{p.Entry}),
			want: fmt.Sprintf("core: internal error: caller variant main lacks site %d", site.ID),
		},
		{
			name: "variant without its entry",
			a6:   build([]sdg.VertexID{site.CallVertex}, []sdg.VertexID{p.FormalIns[0]}),
			want: "core: internal error: variant of p lacks its entry vertex",
		},
	}
	for _, c := range cases {
		_, err := ReadoutOnly(&Result{Source: g, Enc: enc, A6: c.a6})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}

	// The same automaton with p's entry and both formal-ins in x reads
	// out, and the call names p's one variant.
	res, err := ReadoutOnly(&Result{Source: g, Enc: enc,
		A6: build([]sdg.VertexID{site.CallVertex, site.ActualIns[0]}, []sdg.VertexID{p.Entry, p.FormalIns[0], p.FormalIns[1]})})
	if err != nil {
		t.Fatalf("well-formed A6: %v", err)
	}
	var calls []string
	for _, v := range res.Variants() {
		for _, c := range v.Calls {
			calls = append(calls, fmt.Sprintf("%s@%d->%s", v.Name, c.Site, c.Callee))
		}
	}
	if got, want := strings.Join(calls, " "), fmt.Sprintf("main@%d->p", site.ID); got != want {
		t.Errorf("calls %q, want %q", got, want)
	}
}
