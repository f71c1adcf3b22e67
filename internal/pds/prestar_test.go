package pds

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"specslice/internal/fsa"
)

// CheckSameAutomaton fails t unless got and want agree in NumStates,
// Starts, Finals and sorted Transitions. It also requires every state's
// transitions in the same insertion order, so the dense engine keeps the
// reference's LIFO worklist discipline, not only its language.
func CheckSameAutomaton(t testing.TB, label string, got, want *fsa.FSA) {
	t.Helper()
	if got.NumStates() != want.NumStates() {
		t.Fatalf("%s: NumStates %d, reference %d", label, got.NumStates(), want.NumStates())
	}
	if g, w := got.Starts(), want.Starts(); !slices.Equal(g, w) {
		t.Fatalf("%s: Starts %v, reference %v", label, g, w)
	}
	if g, w := got.Finals(), want.Finals(); !slices.Equal(g, w) {
		t.Fatalf("%s: Finals %v, reference %v", label, g, w)
	}
	if g, w := got.Transitions(), want.Transitions(); !slices.Equal(g, w) {
		t.Fatalf("%s: %d transitions, reference %d; first difference %v",
			label, len(g), len(w), firstDiff(g, w))
	}
	for s := 0; s < got.NumStates(); s++ {
		if g, w := got.Out(s), want.Out(s); !slices.Equal(g, w) {
			t.Fatalf("%s: state %d lists its transitions as %v, reference %v", label, s, g, w)
		}
	}
}

func firstDiff(a, b []fsa.Transition) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %v vs %v", i, a[i], b[i])
		}
	}
	return "one is a prefix of the other"
}

// randomQuery accepts 1–4 random configurations of p over nsym symbols.
func randomQuery(rng *rand.Rand, p *PDS, nsym int) *fsa.FSA {
	var cs []config
	for range 1 + rng.Intn(4) {
		stack := ""
		for range 1 + rng.Intn(3) {
			stack += string(byte(1 + rng.Intn(nsym)))
		}
		cs = append(cs, config{rng.Intn(p.NumLocs), stack})
	}
	return queryFor(p, cs)
}

// TestPrestarDifferential compares the dense engine with the map-based
// reference (reference_test.go) on seeded random pushdown systems, and on
// more of them whose symbols are too wide to index densely or to pack into
// the result automaton's transition keys. The Siemens-suite encodings are
// compared in corpus_test.go.
func TestPrestarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := range 300 {
		p := randomPDS(rng)
		dense, ref := NewPrestarEngine(p), NewReferencePrestarEngine(p)
		// Two queries per engine, so the second runs on a reused arena.
		for q := range 2 {
			a := randomQuery(rng, p, 4)
			CheckSameAutomaton(t, fmt.Sprintf("iter %d query %d (rules %v)", iter, q, p.Rules),
				dense.Prestar(a), ref.Prestar(a))
		}
	}

	t.Run("wide symbols", func(t *testing.T) {
		// Symbols from 2^21 up do not fit fsa's packed transition keys,
		// and these are too sparse for the engine's dense symbol tables.
		// Mapping the random PDS's symbols 1..3 onto them keeps its
		// shape; symbol 4 stays dense.
		wide := []fsa.Symbol{0, 1<<21 + 3, 1<<23 + 1, 5 << 21, 4}
		rng := rand.New(rand.NewSource(72))
		sparse := 0
		for iter := range 100 {
			p := randomPDS(rng)
			for i := range p.Rules {
				r := &p.Rules[i]
				r.G = int32(wide[r.G])
				for j := range r.W[:r.N] {
					r.W[j] = int32(wide[r.W[j]])
				}
			}
			small := randomQuery(rng, p, 4)
			a := fsa.New(small.NumStates())
			small.Each(func(tr fsa.Transition) { a.Add(tr.From, wide[tr.Sym], tr.To) })
			for _, f := range small.Finals() {
				a.SetFinal(f)
			}
			dense := NewPrestarEngine(p)
			if len(dense.wide) > 0 {
				sparse++
			}
			CheckSameAutomaton(t, fmt.Sprintf("iter %d (rules %v)", iter, p.Rules),
				dense.Prestar(a), NewReferencePrestarEngine(p).Prestar(a))
		}
		if sparse == 0 {
			t.Fatal("no PDS indexed a symbol outside the dense range")
		}
	})
}

// TestPrestarConcurrent issues queries through one shared engine from 8
// goroutines; every result must equal the sequential one. Run under -race.
func TestPrestarConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := &PDS{NumLocs: 3}
	for range 60 {
		r := Rule{P: int32(rng.Intn(3)), G: int32(1 + rng.Intn(6)), P2: int32(rng.Intn(3))}
		r.N = int32(rng.Intn(3))
		for j := range r.N {
			r.W[j] = int32(1 + rng.Intn(6))
		}
		p.AddRule(r)
	}
	const goroutines, perG = 8, 50
	queries := make([]*fsa.FSA, goroutines*perG)
	want := make([]*fsa.FSA, len(queries))
	seq := NewPrestarEngine(p)
	for i := range queries {
		queries[i] = randomQuery(rng, p, 6)
		want[i] = seq.Prestar(queries[i])
	}

	shared := NewPrestarEngine(p)
	got := make([]*fsa.FSA, len(queries))
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g * perG; i < (g+1)*perG; i++ {
				got[i] = shared.Prestar(queries[i])
			}
		}()
	}
	wg.Wait()
	for i := range queries {
		CheckSameAutomaton(t, fmt.Sprintf("query %d", i), got[i], want[i])
	}
	if shared.ScratchBytes() <= 0 {
		t.Error("no scratch accounted after concurrent queries")
	}
}
