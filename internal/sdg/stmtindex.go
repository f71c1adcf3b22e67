package sdg

import (
	"slices"
	"strings"

	"specslice/internal/lang"
)

// StmtIndex maps a graph's statements to the SDG, densely by lang.NodeID:
// the index program emission reads a slice back out through. It is built
// once per graph, on first use (Graph.StmtIndex), and is read-only after.
type StmtIndex struct {
	// vertex holds each statement's primary vertex plus one (0 = none).
	vertex []int32
	// locals holds each procedure's variables, indexed like Graph.Procs.
	locals [][]Local
}

// Local is one variable a procedure declares: a parameter or a local.
type Local struct {
	Name string
	// FnPtr reports an fnptr local. Parameters are listed with FnPtr
	// false: emission redeclares a dropped-but-assigned parameter as a
	// plain int local.
	FnPtr bool
}

// StmtIndex returns the graph's statement index, building it on first
// use. Safe for concurrent use; the graph must be fully built.
func (g *Graph) StmtIndex() *StmtIndex {
	g.stmtsOnce.Do(func() { g.stmts = buildStmtIndex(g) })
	return g.stmts
}

// PrimaryVertex returns the vertex that stands for statement id in the
// slice: its statement, predicate or call vertex. A call, printf or scanf
// statement's primary vertex is its call vertex, whose Site is the call
// site. Declarations without an initializer have none.
func (x *StmtIndex) PrimaryVertex(id lang.NodeID) (VertexID, bool) {
	if id < 0 || int(id) >= len(x.vertex) || x.vertex[id] == 0 {
		return 0, false
	}
	return VertexID(x.vertex[id] - 1), true
}

// Locals returns the parameters and declared locals of procedure proc
// (an index into Graph.Procs), sorted by name. Names are unique in a
// program that validates.
func (x *StmtIndex) Locals(proc int) []Local { return x.locals[proc] }

func buildStmtIndex(g *Graph) *StmtIndex {
	n := 0
	for i := range g.Vertices {
		if v := &g.Vertices[i]; v.Stmt != nil {
			n = max(n, int(v.Stmt.Base().ID)+1)
		}
	}
	x := &StmtIndex{vertex: make([]int32, n), locals: make([][]Local, len(g.Procs))}
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if v.Stmt == nil {
			continue
		}
		switch v.Kind {
		case KindStmt, KindPredicate, KindCall:
			x.vertex[v.Stmt.Base().ID] = int32(v.ID) + 1
		}
	}
	for _, p := range g.Procs {
		var ls []Local
		for _, pm := range p.Fn.Params {
			ls = append(ls, Local{Name: pm.Name})
		}
		lang.WalkStmts(p.Fn.Body, func(s lang.Stmt) {
			if d, ok := s.(*lang.DeclStmt); ok {
				ls = append(ls, Local{Name: d.Name, FnPtr: d.IsFnPtr})
			}
		})
		slices.SortFunc(ls, func(a, b Local) int { return strings.Compare(a.Name, b.Name) })
		x.locals[p.Index] = ls
	}
	return x
}
