// Package cfg builds per-procedure control-flow graphs for MicroC and
// computes postdominators and control dependence.
//
// Jump statements (break, continue, return) are handled with the
// Ball–Horwitz augmentation: each jump has its taken edge plus a pseudo
// "fall-through" edge to its lexical successor. Control dependence is
// computed on the augmented graph (so statements guarded by a jump become
// control dependent on it, which executable slicing needs), while dataflow
// clients should traverse only executable (non-pseudo) edges.
package cfg

import (
	"fmt"

	"specslice/internal/lang"
)

// NodeKind classifies CFG nodes.
type NodeKind int

const (
	KindEntry NodeKind = iota
	KindExit
	KindStmt
)

// Node is a CFG node: a statement, or the synthetic Entry/Exit.
type Node struct {
	ID   int
	Kind NodeKind
	Stmt lang.Stmt // nil for Entry/Exit
}

func (n *Node) String() string {
	switch n.Kind {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	default:
		return fmt.Sprintf("n%d", n.ID)
	}
}

// Edge is a directed CFG edge. Pseudo edges exist only for control-dependence
// computation (Ball–Horwitz jump fall-throughs and the Entry→Exit edge).
type Edge struct {
	To     int
	Pseudo bool
}

// Graph is the CFG of one function.
type Graph struct {
	Fn    *lang.FuncDecl
	Nodes []*Node
	Entry *Node
	Exit  *Node
	Succs [][]Edge
	Preds [][]Edge // mirrors Succs
}

// Build constructs the CFG of fn. Every statement is one node, besides
// Entry and Exit, so the nodes and their edge lists are carved from
// backings sized up front.
func Build(fn *lang.FuncDecl) *Graph {
	n := fn.NumStmts() + 2
	b := &builder{
		g:     &Graph{Fn: fn, Nodes: make([]*Node, 0, n), Succs: make([][]Edge, 0, n)},
		nodes: make([]Node, 0, n),
		// No node has more than two successors: a branch's two arms, or
		// a jump's target and its pseudo fall-through.
		succs: make([]Edge, 2*n),
	}
	b.g.Entry = b.newNode(KindEntry, nil)
	b.g.Exit = b.newNode(KindExit, nil)
	first := b.block(fn.Body, b.g.Exit.ID, loopCtx{})
	b.edge(b.g.Entry.ID, first, false)
	// Augmented edge required by Ferrante–Ottenstein–Warren control
	// dependence: Entry acts as a predicate whose false branch skips the
	// whole body.
	b.edge(b.g.Entry.ID, b.g.Exit.ID, true)
	b.g.buildPreds()
	return b.g
}

type loopCtx struct {
	breakTo    int // node after the loop
	continueTo int // loop condition node
	inLoop     bool
}

type builder struct {
	g     *Graph
	nodes []Node // backs g.Nodes; never grows past its capacity
	succs []Edge // backs g.Succs, two slots per node
}

func (b *builder) newNode(kind NodeKind, s lang.Stmt) *Node {
	id := len(b.g.Nodes)
	var n *Node
	if len(b.nodes) < cap(b.nodes) {
		b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Stmt: s})
		n = &b.nodes[len(b.nodes)-1]
	} else {
		n = &Node{ID: id, Kind: kind, Stmt: s}
	}
	b.g.Nodes = append(b.g.Nodes, n)
	var succ []Edge
	if 2*id+2 <= len(b.succs) {
		succ = b.succs[2*id : 2*id : 2*id+2]
	}
	b.g.Succs = append(b.g.Succs, succ)
	return n
}

func (b *builder) edge(from, to int, pseudo bool) {
	for _, e := range b.g.Succs[from] {
		if e.To == to && e.Pseudo == pseudo {
			return
		}
	}
	b.g.Succs[from] = append(b.g.Succs[from], Edge{To: to, Pseudo: pseudo})
}

// block wires stmts so control falls through to next; returns the entry node.
func (b *builder) block(blk *lang.Block, next int, lc loopCtx) int {
	if blk == nil {
		return next
	}
	cur := next
	for i := len(blk.Stmts) - 1; i >= 0; i-- {
		cur = b.stmt(blk.Stmts[i], cur, lc)
	}
	return cur
}

func (b *builder) stmt(s lang.Stmt, next int, lc loopCtx) int {
	switch x := s.(type) {
	case *lang.IfStmt:
		n := b.newNode(KindStmt, s)
		thenEntry := b.block(x.Then, next, lc)
		b.edge(n.ID, thenEntry, false)
		if x.Else != nil {
			elseEntry := b.block(x.Else, next, lc)
			b.edge(n.ID, elseEntry, false)
		} else {
			b.edge(n.ID, next, false)
		}
		return n.ID

	case *lang.WhileStmt:
		n := b.newNode(KindStmt, s)
		inner := loopCtx{breakTo: next, continueTo: n.ID, inLoop: true}
		bodyEntry := b.block(x.Body, n.ID, inner)
		b.edge(n.ID, bodyEntry, false)
		b.edge(n.ID, next, false)
		return n.ID

	case *lang.BreakStmt:
		n := b.newNode(KindStmt, s)
		to := b.g.Exit.ID
		if lc.inLoop {
			to = lc.breakTo
		}
		b.edge(n.ID, to, false)
		if next != to {
			b.edge(n.ID, next, true)
		}
		return n.ID

	case *lang.ContinueStmt:
		n := b.newNode(KindStmt, s)
		to := b.g.Exit.ID
		if lc.inLoop {
			to = lc.continueTo
		}
		b.edge(n.ID, to, false)
		if next != to {
			b.edge(n.ID, next, true)
		}
		return n.ID

	case *lang.ReturnStmt:
		n := b.newNode(KindStmt, s)
		b.edge(n.ID, b.g.Exit.ID, false)
		if next != b.g.Exit.ID {
			b.edge(n.ID, next, true)
		}
		return n.ID

	default:
		n := b.newNode(KindStmt, s)
		b.edge(n.ID, next, false)
		return n.ID
	}
}

// buildPreds mirrors Succs into Preds, each node's list a view into one
// backing, in source-node order.
func (g *Graph) buildPreds() {
	n := len(g.Nodes)
	counts := make([]int, n+1)
	m := 0
	for _, es := range g.Succs {
		for _, e := range es {
			counts[e.To+1]++
			m++
		}
	}
	backing := make([]Edge, m)
	g.Preds = make([][]Edge, n)
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
		g.Preds[v] = backing[counts[v]:counts[v]:counts[v+1]]
	}
	for from, es := range g.Succs {
		for _, e := range es {
			g.Preds[e.To] = append(g.Preds[e.To], Edge{To: from, Pseudo: e.Pseudo})
		}
	}
}
