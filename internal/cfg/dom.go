package cfg

import "slices"

// Scratch is the working storage of Postdominators and ControlDeps, for a
// caller that analyzes many graphs in turn: a call through a Scratch
// reuses the arrays of the one before, and its result stays valid until
// the next call on the same Scratch.
type Scratch struct {
	order, state, rpoNum, ipdom []int
	stack                       []frame
	pairs                       []pair
	last, start, backing        []int
	out                         [][]int
}

type frame struct{ node, next int }

// pair is one control dependence: node v depends on node u.
type pair struct{ v, u int }

// Postdominators computes the immediate-postdominator array of g (indexed by
// node ID; ipdom[Exit] == Exit). It uses the Cooper–Harvey–Kennedy iterative
// algorithm on the reversed graph, considering both executable and pseudo
// edges (the Ball–Horwitz augmented graph, on which every node reaches Exit).
func Postdominators(g *Graph) []int {
	var sc Scratch
	return sc.Postdominators(g)
}

// Postdominators is the package function Postdominators, drawing its
// arrays from sc.
func (sc *Scratch) Postdominators(g *Graph) []int {
	n := len(g.Nodes)
	// Reverse postorder of the *reversed* graph, rooted at Exit.
	order := sc.order[:0]                     // postorder of reverse graph
	state := slices.Grow(sc.state[:0], n)[:n] // 0 unvisited, 1 on stack, 2 done
	clear(state)
	stack := append(sc.stack[:0], frame{g.Exit.ID, 0})
	state[g.Exit.ID] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		preds := g.Preds[f.node]
		if f.next < len(preds) {
			p := preds[f.next].To
			f.next++
			if state[p] == 0 {
				state[p] = 1
				stack = append(stack, frame{p, 0})
			}
			continue
		}
		state[f.node] = 2
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	// rpoNum: position in reverse postorder (root first).
	rpoNum := slices.Grow(sc.rpoNum[:0], n)[:n]
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, id := range order {
		rpoNum[id] = len(order) - 1 - i
	}

	ipdom := slices.Grow(sc.ipdom[:0], n)[:n]
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[g.Exit.ID] = g.Exit.ID
	sc.order, sc.stack, sc.state, sc.rpoNum, sc.ipdom = order, stack, state, rpoNum, ipdom

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = ipdom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = ipdom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		// Iterate in reverse postorder of the reversed graph (Exit first).
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			if id == g.Exit.ID {
				continue
			}
			newIdom := -1
			for _, e := range g.Succs[id] { // successors are "preds" in reversed graph
				s := e.To
				if rpoNum[s] == -1 || ipdom[s] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != -1 && ipdom[id] != newIdom {
				ipdom[id] = newIdom
				changed = true
			}
		}
	}
	return ipdom
}

// ControlDeps computes control dependences on the augmented CFG via the
// Ferrante–Ottenstein–Warren construction: for each edge u→w where w does
// not postdominate u, every node on the postdominator-tree path from w up to
// (but excluding) ipdom(u) is control dependent on u.
//
// The result maps each node ID to the node IDs it is control dependent on
// (its controllers), each once, in ascending order; the lists are views
// into one backing. Every statement node ends up with at least one
// controller (possibly Entry) thanks to the Entry→Exit augmented edge.
func ControlDeps(g *Graph) [][]int {
	var sc Scratch
	return sc.ControlDeps(g)
}

// ControlDeps is the package function ControlDeps, drawing its arrays —
// the result's included — from sc.
func (sc *Scratch) ControlDeps(g *Graph) [][]int {
	ipdom := sc.Postdominators(g)
	n := len(g.Nodes)
	// Collect (dependent, controller) pairs with u ascending; last[v]
	// drops a second path from the same u to v.
	pairs := sc.pairs[:0]
	last := slices.Grow(sc.last[:0], n)[:n]
	for i := range last {
		last[i] = -1
	}
	for u := range g.Nodes {
		for _, e := range g.Succs[u] {
			w := e.To
			// Walk w up the postdominator tree to ipdom(u), exclusive.
			stop := ipdom[u]
			v := w
			for v != stop && v != -1 {
				if v != u && last[v] != u { // a node is not usefully control dependent on itself here
					last[v] = u
					pairs = append(pairs, pair{v, u})
				}
				if v == ipdom[v] {
					break
				}
				v = ipdom[v]
			}
		}
	}
	// Group by dependent, stably, so each list keeps u ascending.
	start := slices.Grow(sc.start[:0], n+1)[:n+1]
	clear(start)
	for _, p := range pairs {
		start[p.v+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	backing := slices.Grow(sc.backing[:0], len(pairs))[:len(pairs)]
	out := slices.Grow(sc.out[:0], n)[:n]
	sc.pairs, sc.last, sc.start, sc.backing, sc.out = pairs, last, start, backing, out
	for v := 0; v < n; v++ {
		out[v] = backing[start[v]:start[v]:start[v+1]]
	}
	for _, p := range pairs {
		out[p.v] = append(out[p.v], p.u)
	}
	return out
}
