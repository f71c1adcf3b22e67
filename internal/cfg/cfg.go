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
	Fn     *lang.FuncDecl
	Nodes  []*Node
	Entry  *Node
	Exit   *Node
	Succs  [][]Edge
	Preds  [][]Edge // mirrors Succs
	ByStmt map[lang.NodeID]*Node
}

// Build constructs the CFG of fn.
func Build(fn *lang.FuncDecl) *Graph {
	b := &builder{g: &Graph{Fn: fn, ByStmt: map[lang.NodeID]*Node{}}}
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
	g *Graph
}

func (b *builder) newNode(kind NodeKind, s lang.Stmt) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: kind, Stmt: s}
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.Succs = append(b.g.Succs, nil)
	if s != nil {
		b.g.ByStmt[s.Base().ID] = n
	}
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

func (g *Graph) buildPreds() {
	g.Preds = make([][]Edge, len(g.Nodes))
	for from, es := range g.Succs {
		for _, e := range es {
			g.Preds[e.To] = append(g.Preds[e.To], Edge{To: from, Pseudo: e.Pseudo})
		}
	}
}
