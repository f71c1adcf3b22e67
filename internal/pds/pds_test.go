package pds

import (
	"fmt"
	"math/rand"
	"testing"

	"specslice/internal/fsa"
)

// config is an explicit PDS configuration for the reference implementation.
type config struct {
	loc   int
	stack string // one byte per symbol, top first
}

// step returns the successors of c under the rules.
func step(p *PDS, c config) []config {
	if len(c.stack) == 0 {
		return nil
	}
	top := fsa.Symbol(c.stack[0])
	rest := c.stack[1:]
	var out []config
	for _, r := range p.Rules {
		if int(r.P) != c.loc || fsa.Symbol(r.G) != top {
			continue
		}
		ns := ""
		for _, s := range r.W[:r.N] {
			ns += string(byte(s))
		}
		out = append(out, config{int(r.P2), ns + rest})
	}
	return out
}

// reachable computes the forward-reachable set from seeds, breadth-first,
// with stack length bounded by maxStack and a config cap. The second result
// is false when the cap was hit, meaning the set is incomplete and the
// caller must skip comparisons that depend on completeness.
func reachable(p *PDS, seeds []config, maxStack, cap int) (map[config]bool, bool) {
	seen := map[config]bool{}
	work := append([]config(nil), seeds...)
	for _, s := range seeds {
		seen[s] = true
	}
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		for _, n := range step(p, c) {
			if len(n.stack) > maxStack || seen[n] {
				continue
			}
			if len(seen) >= cap {
				return seen, false
			}
			seen[n] = true
			work = append(work, n)
		}
	}
	return seen, true
}

// canReach reports whether target is reachable from seed (bounded), with ok
// false when the search was truncated without finding the target.
func canReach(p *PDS, seed, target config, maxStack, cap int) (found, ok bool) {
	if seed == target {
		return true, true
	}
	seen := map[config]bool{seed: true}
	work := []config{seed}
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		for _, n := range step(p, c) {
			if n == target {
				return true, true
			}
			if len(n.stack) > maxStack || seen[n] {
				continue
			}
			if len(seen) >= cap {
				return false, false
			}
			seen[n] = true
			work = append(work, n)
		}
	}
	return false, true
}

// wordOf converts a stack string to symbols.
func wordOf(stack string) []fsa.Symbol {
	w := make([]fsa.Symbol, len(stack))
	for i := 0; i < len(stack); i++ {
		w[i] = fsa.Symbol(stack[i])
	}
	return w
}

// queryFor builds a P-automaton accepting exactly the given configurations.
func queryFor(p *PDS, configs []config) *fsa.FSA {
	a := fsa.New(p.NumLocs)
	final := a.AddState()
	a.SetFinal(final)
	for _, c := range configs {
		cur := c.loc
		for i := 0; i < len(c.stack); i++ {
			var to int
			if i == len(c.stack)-1 {
				to = final
			} else {
				to = a.AddState()
			}
			a.Add(cur, fsa.Symbol(c.stack[i]), to)
			cur = to
		}
		if len(c.stack) == 0 {
			// Accept (loc, ε): loc itself must accept.
			a.SetFinal(c.loc)
		}
	}
	return a
}

// enumerate lists all configurations with stack length ≤ maxLen over nsym
// symbols starting at 1.
func enumerate(numLocs, nsym, maxLen int) []config {
	var out []config
	var stacks []string
	stacks = append(stacks, "")
	for l := 0; l < maxLen; l++ {
		var next []string
		for _, s := range stacks {
			if len(s) == l {
				for d := 1; d <= nsym; d++ {
					next = append(next, string(byte(d))+s)
				}
			}
		}
		stacks = append(stacks, next...)
	}
	for loc := 0; loc < numLocs; loc++ {
		for _, s := range stacks {
			out = append(out, config{loc, s})
		}
	}
	return out
}

func randomPDS(rng *rand.Rand) *PDS {
	p := &PDS{NumLocs: 1 + rng.Intn(3)}
	nsym := 2 + rng.Intn(3)
	nrules := 3 + rng.Intn(8)
	for i := 0; i < nrules; i++ {
		r := Rule{
			P:  int32(rng.Intn(p.NumLocs)),
			G:  int32(1 + rng.Intn(nsym)),
			P2: int32(rng.Intn(p.NumLocs)),
		}
		switch rng.Intn(3) {
		case 0: // pop
		case 1:
			r.W, r.N = [2]int32{int32(1 + rng.Intn(nsym))}, 1
		case 2:
			r.W, r.N = [2]int32{int32(1 + rng.Intn(nsym)), int32(1 + rng.Intn(nsym))}, 2
		}
		p.AddRule(r)
	}
	return p
}

// TestPoststarMatchesExplicitReachability: every configuration found by the
// bounded explicit search must be accepted by Poststar, and every accepted
// small configuration must be reachable.
func TestPoststarMatchesExplicitReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 120; iter++ {
		p := randomPDS(rng)
		seed := config{rng.Intn(p.NumLocs), string(byte(1 + rng.Intn(2)))}
		post := p.Poststar(queryFor(p, []config{seed}))
		// High bound so deep excursions that return shallow are found.
		reach, complete := reachable(p, []config{seed}, 12, 60000)
		for _, c := range enumerate(p.NumLocs, 3, 3) {
			got := post.AcceptsFrom(c.loc, wordOf(c.stack))
			want := reach[c]
			if got && !want && !complete {
				continue // truncated search may simply have missed it
			}
			if got != want {
				t.Fatalf("iter %d: post* disagrees on (%d,%q): got %v want %v\nseed=(%d,%q)\nrules=%v",
					iter, c.loc, c.stack, got, want, seed.loc, seed.stack, p.Rules)
			}
		}
	}
}

// TestPrestarMatchesExplicitReachability: c' ∈ pre*(C) iff C is reachable
// from c'.
func TestPrestarMatchesExplicitReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 120; iter++ {
		p := randomPDS(rng)
		target := config{rng.Intn(p.NumLocs), string(byte(1 + rng.Intn(2)))}
		pre := p.Prestar(queryFor(p, []config{target}))
		for _, c := range enumerate(p.NumLocs, 2, 2) {
			got := pre.AcceptsFrom(c.loc, wordOf(c.stack))
			want, ok := canReach(p, c, target, 10, 20000)
			if !ok && got != want {
				continue // truncated search: only a found target is conclusive
			}
			if got != want {
				t.Fatalf("iter %d: pre* disagrees on (%d,%q): got %v want %v\ntarget=(%d,%q)\nrules=%v",
					iter, c.loc, c.stack, got, want, target.loc, target.stack, p.Rules)
			}
		}
	}
}

// TestPrePostDuality: c' ∈ pre*({c}) iff c ∈ post*({c'}), sampled.
func TestPrePostDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 60; iter++ {
		p := randomPDS(rng)
		c1 := config{rng.Intn(p.NumLocs), string(byte(1+rng.Intn(2))) + string(byte(1+rng.Intn(2)))}
		c2 := config{rng.Intn(p.NumLocs), string(byte(1 + rng.Intn(2)))}
		pre := p.Prestar(queryFor(p, []config{c2}))
		post := p.Poststar(queryFor(p, []config{c1}))
		if pre.AcceptsFrom(c1.loc, wordOf(c1.stack)) != post.AcceptsFrom(c2.loc, wordOf(c2.stack)) {
			t.Fatalf("iter %d: duality violated for %v -> %v\nrules=%v", iter, c1, c2, p.Rules)
		}
	}
}

// TestPrestarRecursiveLanguage reproduces the paper's (C3 C3)* C1 example
// shape: a PDS with a recursive push rule yields an infinite regular pre*
// language.
func TestPrestarRecursiveLanguage(t *testing.T) {
	// Symbols: e=1 (entry), C=2 (call-site), t=3 (target).
	// Rules: <0,e> -> <0, e C>   (recursive call)
	//        <0,e> -> <0, t>     (reach target)
	p := &PDS{NumLocs: 1}
	p.AddRule(Rule{P: 0, G: 1, P2: 0, W: [2]int32{1, 2}, N: 2})
	p.AddRule(Rule{P: 0, G: 1, P2: 0, W: [2]int32{3}, N: 1})
	// Criterion: (0, t) — target with empty remaining stack.
	q := fsa.New(1)
	f := q.AddState()
	q.Add(0, 3, f)
	q.SetFinal(f)
	pre := p.Prestar(q)
	// (e, C^k) ∈ pre* for every k ≥ 0: e unwinds to t only after... e pushes
	// C each recursion; (e, C^k) reaches (t, C^k); t with non-empty stack is
	// not the criterion. But (e, ε) -> (t, ε) is. And (e,C^k) -> (e C^{k+1})…
	// Only (e, ε) should be accepted among (e, C^k) since C never pops.
	if !pre.AcceptsFrom(0, []fsa.Symbol{1}) {
		t.Error("(e, ε) must be in pre*")
	}
	if pre.AcceptsFrom(0, []fsa.Symbol{1, 2}) {
		t.Error("(e, C) must not be in pre* (no pop rule for C)")
	}
	// Now add a pop rule <0,t> -> <0,ε> and <0,C> -> <0,t>: then t pops and
	// C converts to t, so (e, C^k) reaches (t, ε).
	p.AddRule(Rule{P: 0, G: 3, P2: 0})
	p.AddRule(Rule{P: 0, G: 2, P2: 0, W: [2]int32{3}, N: 1})
	pre = p.Prestar(q)
	for k := 0; k <= 6; k++ {
		w := []fsa.Symbol{1}
		for i := 0; i < k; i++ {
			w = append(w, 2)
		}
		if !pre.AcceptsFrom(0, w) {
			t.Errorf("(e, C^%d) must be in pre*", k)
		}
	}
}

func ExamplePDS_Prestar() {
	// One control location, symbols a=1, b=2; rule <0,a> -> <0,ε> pops a.
	p := &PDS{NumLocs: 1}
	p.AddRule(Rule{P: 0, G: 1, P2: 0})
	// Criterion: (0, b).
	q := fsa.New(1)
	f := q.AddState()
	q.Add(0, 2, f)
	q.SetFinal(f)
	pre := p.Prestar(q)
	fmt.Println(pre.AcceptsFrom(0, []fsa.Symbol{1, 2})) // (0, ab) pops to (0, b)
	fmt.Println(pre.AcceptsFrom(0, []fsa.Symbol{1, 1, 2}))
	fmt.Println(pre.AcceptsFrom(0, []fsa.Symbol{2, 1}))
	// Output:
	// true
	// true
	// false
}
