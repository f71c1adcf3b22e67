// Package dataflow implements the interprocedural side-effect analyses the
// SDG builder needs: GMOD/GREF (globals a procedure may modify/reference,
// transitively), MustMod (globals a procedure assigns on every terminating
// path), and UEREF (globals it may reference before definitely assigning
// them), in the style of Cooper–Kennedy.
//
// The relations are solved on dense bitsets: every global gets an interned
// ID (Interner), every procedure one []uint64 row per relation, and the
// summary equations become word-wise OR/AND over rows. The equations only
// flow callee → caller, so the solver runs bottom-up over the condensation
// of the call graph: non-recursive components solve in a single pass once
// their callees are final, recursive components iterate their rows to
// fixpoint, and change detection is word comparison. Components at the
// same condensation level share no call edges, so a level's components
// fan out across a worker pool in contiguous chunks balanced by statement
// count — coarse enough that small components don't drown the win in
// scheduling overhead. The fixpoints are unique, which is what keeps the
// result — and everything downstream, vertex numbering included —
// byte-identical no matter the worker count. The map-based solver this
// replaced survives in reference_test.go as the differential oracle.
package dataflow

import (
	"slices"
	"sort"
	"sync"
	"time"

	"specslice/internal/cfg"
	"specslice/internal/lang"
	"specslice/internal/par"
)

// StringSet is a set of variable names — the materialized-view currency of
// the dense relations, kept for oracle tests and non-hot-path consumers.
type StringSet map[string]bool

// Clone returns a copy of s.
func (s StringSet) Clone() StringSet {
	c := make(StringSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// Sorted returns the members in sorted order.
func (s StringSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Equal reports set equality.
func (s StringSet) Equal(o StringSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// ModRefStats records where one mod/ref computation spent its time.
type ModRefStats struct {
	// Intern covers interner construction, the procedure table, and
	// address-taken resolution; Local the per-procedure CFG construction
	// and local def/ref/use bit extraction; Fixpoint the call-graph
	// condensation and the word-wise summary propagation.
	Intern   time.Duration
	Local    time.Duration
	Fixpoint time.Duration
}

// ModRef holds the per-procedure side-effect summaries on dense rows over
// interned global-variable IDs. The four relations are:
//
//   - GMOD: globals a procedure may modify, including through callees;
//   - GREF: globals it may reference, including through callees;
//   - MustMod: globals it definitely assigns on every path from entry to
//     exit, including through callees;
//   - UEREF: globals it may reference before definitely assigning them
//     (upward-exposed references), including through callees. The SDG
//     builder creates formal-in vertices for UEREF ∪ (GMOD − MustMod),
//     matching the paper's MayRef ∪ (MayMod − MustMod) rule (§2.1.1).
//
// The accessor methods returning StringSet are a lazily-materialized view
// (built once, on first use) for oracle tests and cold consumers; the SDG
// builder's hot paths read the precomputed sorted name slices and bit
// tests instead. A ModRef is immutable after construction and safe for
// concurrent readers.
type ModRef struct {
	in    *Interner
	procs []string // procedure names, in program order
	idx   map[string]int
	words int
	top   []uint64 // all interned variables set

	gmod, gref, mustmod, ueref []uint64 // len(procs)×words, flattened

	// Sorted-name views the SDG builder and the build-signature hasher
	// read per skeleton and per call site; precomputed once so no access
	// sorts or allocates.
	formalInNames [][]string
	gmodNames     [][]string
	mustModNames  [][]string

	stats ModRefStats

	viewOnce sync.Once
	view     *modRefView
}

// modRefView is the map materialization of the dense rows.
type modRefView struct {
	gmod, gref, mustmod, ueref map[string]StringSet
}

func (mr *ModRef) row(rel []uint64, i int) []uint64 {
	return rel[i*mr.words : (i+1)*mr.words : (i+1)*mr.words]
}

func (mr *ModRef) materialize() *modRefView {
	mr.viewOnce.Do(func() {
		v := &modRefView{
			gmod:    make(map[string]StringSet, len(mr.procs)),
			gref:    make(map[string]StringSet, len(mr.procs)),
			mustmod: make(map[string]StringSet, len(mr.procs)),
			ueref:   make(map[string]StringSet, len(mr.procs)),
		}
		for i, name := range mr.procs {
			v.gmod[name] = mr.in.decodeSet(mr.row(mr.gmod, i))
			v.gref[name] = mr.in.decodeSet(mr.row(mr.gref, i))
			v.mustmod[name] = mr.in.decodeSet(mr.row(mr.mustmod, i))
			v.ueref[name] = mr.in.decodeSet(mr.row(mr.ueref, i))
		}
		mr.view = v
	})
	return mr.view
}

// GMOD returns fn's may-modify set as a materialized view.
func (mr *ModRef) GMOD(fn string) StringSet { return mr.materialize().gmod[fn] }

// GREF returns fn's may-reference set as a materialized view.
func (mr *ModRef) GREF(fn string) StringSet { return mr.materialize().gref[fn] }

// MustMod returns fn's must-modify set as a materialized view.
func (mr *ModRef) MustMod(fn string) StringSet { return mr.materialize().mustmod[fn] }

// UEREF returns fn's upward-exposed reference set as a materialized view.
func (mr *ModRef) UEREF(fn string) StringSet { return mr.materialize().ueref[fn] }

// FormalInGlobals returns the globals needing formal-in vertices for fn:
// UEREF(fn) ∪ (GMOD(fn) − MustMod(fn)).
func (mr *ModRef) FormalInGlobals(fn string) StringSet {
	out := StringSet{}
	for _, name := range mr.FormalInGlobalNames(fn) {
		out[name] = true
	}
	return out
}

// FormalInGlobalNames returns FormalInGlobals(fn) as a sorted name slice,
// precomputed — the SDG builder's form. Callers must not mutate it.
func (mr *ModRef) FormalInGlobalNames(fn string) []string {
	if i, ok := mr.idx[fn]; ok {
		return mr.formalInNames[i]
	}
	return nil
}

// GMODNames returns GMOD(fn) as a sorted name slice, precomputed. Callers
// must not mutate it.
func (mr *ModRef) GMODNames(fn string) []string {
	if i, ok := mr.idx[fn]; ok {
		return mr.gmodNames[i]
	}
	return nil
}

// MustModNames returns MustMod(fn) as a sorted name slice, precomputed.
// Callers must not mutate it.
func (mr *ModRef) MustModNames(fn string) []string {
	if i, ok := mr.idx[fn]; ok {
		return mr.mustModNames[i]
	}
	return nil
}

// MustModHas reports v ∈ MustMod(fn) by a bit test.
func (mr *ModRef) MustModHas(fn, v string) bool {
	i, ok := mr.idx[fn]
	if !ok {
		return false
	}
	id, ok := mr.in.ID(v)
	if !ok {
		return false
	}
	return mr.row(mr.mustmod, i)[id/64]&(1<<(uint(id)%64)) != 0
}

// Stats reports the phase timings of the computation that produced mr.
func (mr *ModRef) Stats() ModRefStats { return mr.stats }

// rowsEqualFor reports whether name's four summary rows agree between two
// analyses over the same interner.
func rowsEqualFor(a, b *ModRef, name string) bool {
	ai, aok := a.idx[name]
	bi, bok := b.idx[name]
	if !aok || !bok {
		return aok == bok
	}
	return rowEqual(a.row(a.gmod, ai), b.row(b.gmod, bi)) &&
		rowEqual(a.row(a.gref, ai), b.row(b.gref, bi)) &&
		rowEqual(a.row(a.mustmod, ai), b.row(b.mustmod, bi)) &&
		rowEqual(a.row(a.ueref, ai), b.row(b.ueref, bi))
}

// ComputeModRef computes the four relations for every function,
// single-threaded. Indirect calls are treated conservatively as calls to
// any address-taken function (Andersen-style, flow-insensitive); programs
// transformed by the funcptr package contain no indirect calls and get
// precise results.
func ComputeModRef(prog *lang.Program) *ModRef {
	mr, _ := computeModRef(prog, 1)
	return mr
}

// ComputeModRefCFGs is ComputeModRef over a worker pool of the given size
// (<= 0 means GOMAXPROCS): the local phase shards procedures and the
// fixpoint phase shards call-graph components at the same condensation
// level, in chunks balanced by statement count. The result is identical
// for every worker count. It also returns the CFG its local phase built
// for each procedure, indexed like prog.Funcs, so the SDG builder does not
// build them a second time. Its Stats().Local covers their construction.
func ComputeModRefCFGs(prog *lang.Program, workers int) (*ModRef, []*cfg.Graph) {
	return computeModRef(prog, workers)
}

// Edit relates a program version to the version an earlier analysis
// covered, procedure by procedure: the input of AdvanceEdit.
type Edit struct {
	// OldIndex[i] is the old program's index of new procedure i, matched
	// by name, or -1 for a procedure the old program lacks.
	OldIndex []int32
	// Changed[i] reports that procedure i's normalized text differs from
	// its old version's; a procedure the old program lacks counts as
	// changed.
	Changed []bool
	// Procedure i calls Callees[CallStart[i]:CallStart[i+1]]: the new
	// program's indexes of its direct callees, repeats allowed.
	CallStart, Callees []int32
	// GlobalsChanged reports that the global declarations differ.
	GlobalsChanged bool
}

// The reasons AdvanceEdit recomputes every procedure's summaries. There
// is none for indirect calls: AdvanceEdit takes programs without them.
const (
	FallbackGlobals = "globals"      // the global declarations changed
	FallbackNoState = "no old state" // there is no old analysis
)

// AdvanceStats says how AdvanceEdit went.
type AdvanceStats struct {
	// Fallback names why the summaries were recomputed for the whole
	// program, or is empty when they advanced incrementally.
	Fallback string
	// Resolved counts the procedures whose summaries were re-solved, and
	// Rounds the caller rounds that widened that set after a re-solved
	// procedure's summary changed.
	Resolved, Rounds int
}

// Advanced is AdvanceEdit's result.
type Advanced struct {
	ModRef *ModRef
	// Solved[i] reports that procedure i's summaries were re-solved; the
	// rest were copied from the old analysis. CFGs[i] is the CFG the solve
	// built for procedure i, nil for a procedure not solved.
	Solved []bool
	CFGs   []*cfg.Graph
	Stats  AdvanceStats
}

// AdvanceEdit computes the summaries of newProg, which holds no indirect
// call, incrementally against old, the analysis of the version ed relates
// it to: a procedure's four relations depend only on its own statements
// and its (transitive) callees' summaries, so every procedure whose call
// subtree is textually unchanged keeps its old rows, and the fixpoints
// re-run only over the dirty region — the edited procedures, the members
// of any call cycle they sit in, and, round by round, the callers of
// procedures whose summaries changed. The call structure comes from ed,
// so no procedure outside the dirty region is walked. old is only read:
// its rows are copied, and what it holds immutably (the interner, name
// lists of unchanged summaries) is shared. Falls back to a full
// computation when the global declarations changed or old is nil.
func AdvanceEdit(newProg *lang.Program, old *ModRef, ed *Edit) *Advanced {
	n := len(newProg.Funcs)
	full := func(reason string) *Advanced {
		mr, cfgs := computeModRef(newProg, 1)
		solved := make([]bool, n)
		for i := range solved {
			solved[i] = true
		}
		return &Advanced{ModRef: mr, Solved: solved, CFGs: cfgs, Stats: AdvanceStats{Fallback: reason, Resolved: n}}
	}
	if old == nil {
		return full(FallbackNoState)
	}
	// Globals unchanged ⇒ the old interner covers the new program, so old
	// rows copy verbatim and the change cutoff is a word comparison.
	if ed.GlobalsChanged {
		return full(FallbackGlobals)
	}

	// Dirty: textually changed or added procedures. Removed procedures
	// need no entry — any caller they had must have changed textually to
	// keep resolving. Callers of dirty procedures join the set lazily,
	// change-driven: only when a dirty procedure's recomputed rows
	// actually differ from its old ones (the common statement edit
	// preserves the summaries, and then no caller is ever reanalyzed).
	dirty := slices.Clone(ed.Changed)
	// The solver treats every procedure outside the dirty set as final, but
	// inside a call cycle each member's rows depend on every other member's:
	// the old rows of an untouched member were solved against the edited
	// member's old rows and are stale the moment those change. So the dirty
	// set is kept closed under the new program's SCCs — initially and after
	// every round that pulls callers in.
	comp, compSize := components(n, ed.CallStart, ed.Callees)
	compDirty := make([]bool, len(compSize))
	closeUnderCycles := func() {
		for i, d := range dirty {
			if d && compSize[comp[i]] > 1 {
				compDirty[comp[i]] = true
			}
		}
		for i, c := range comp {
			dirty[i] = dirty[i] || compDirty[c]
		}
	}
	closeUnderCycles()

	st := &incremental{prog: newProg, old: old, oldIndex: ed.OldIndex, locals: make([]*procLocal, n)}
	var callerStart, callers []int32 // the reverse call graph, built on first need
	rounds := 0
	for {
		mr := st.solve(dirty)

		// Cutoff check: if every dirty procedure's rows match its old
		// ones, the callers outside the dirty set — computed against
		// exactly those rows — are still final. Otherwise pull the
		// affected callers in and rerun; the set only grows, so this
		// terminates.
		grew := false
		for i, d := range dirty {
			oi := ed.OldIndex[i]
			if !d || oi < 0 || st.rowsMatchOld(mr, i) {
				continue
			}
			if callers == nil {
				callerStart, callers = reverse(n, ed.CallStart, ed.Callees)
			}
			for _, c := range callers[callerStart[i]:callerStart[i+1]] {
				if !dirty[c] {
					dirty[c] = true
					grew = true
				}
			}
		}
		if !grew {
			st.names(mr, dirty)
			res := &Advanced{ModRef: mr, Solved: dirty, CFGs: make([]*cfg.Graph, n), Stats: AdvanceStats{Rounds: rounds}}
			for i, loc := range st.locals {
				if loc != nil && dirty[i] {
					res.CFGs[i] = loc.graph
					res.Stats.Resolved++
				}
			}
			return res
		}
		rounds++
		closeUnderCycles()
	}
}

// incremental carries AdvanceEdit's state across its rounds: each
// procedure's local dataflow view, built once, the first round it is
// dirty.
type incremental struct {
	prog     *lang.Program
	old      *ModRef
	oldIndex []int32
	locals   []*procLocal // by procedure index
}

// solve returns the analysis with the dirty procedures' rows re-solved and
// every other procedure's copied from the old analysis.
func (st *incremental) solve(dirty []bool) *ModRef {
	old, prog := st.old, st.prog
	n := len(prog.Funcs)
	mr := &ModRef{in: old.in, words: old.words, top: old.top}
	same := n == len(old.procs)
	for i := 0; same && i < n; i++ {
		same = st.oldIndex[i] == int32(i)
	}
	if same {
		// The procedure list is the old one: share its name table.
		mr.procs, mr.idx = old.procs, old.idx
	} else {
		mr.procs, mr.idx = make([]string, n), make(map[string]int, n)
		for i, fn := range prog.Funcs {
			mr.procs[i] = fn.Name
			mr.idx[fn.Name] = i
		}
	}
	w := mr.words
	rows := make([]uint64, 4*n*w)
	mr.gmod, mr.gref, mr.mustmod, mr.ueref = rows[:n*w:n*w], rows[n*w:2*n*w:2*n*w], rows[2*n*w:3*n*w:3*n*w], rows[3*n*w:]
	var fns []*lang.FuncDecl
	for i, fn := range prog.Funcs {
		if dirty[i] {
			fns = append(fns, fn)
			continue
		}
		// Copied, never aliased: old may be serving concurrent readers.
		oi := int(st.oldIndex[i])
		copy(mr.row(mr.gmod, i), old.row(old.gmod, oi))
		copy(mr.row(mr.gref, i), old.row(old.gref, oi))
		copy(mr.row(mr.mustmod, i), old.row(old.mustmod, oi))
		copy(mr.row(mr.ueref, i), old.row(old.ueref, oi))
	}
	s := newSolver(prog, mr, fns)
	for k, pi := range s.fnProc {
		if st.locals[pi] == nil {
			st.locals[pi] = s.buildLocal(k, nil)
		}
		s.locals[k] = st.locals[pi]
	}
	s.solveLevels(1)
	return mr
}

// rowsMatchOld reports whether procedure i's four rows in mr equal its old
// version's.
func (st *incremental) rowsMatchOld(mr *ModRef, i int) bool {
	old, oi := st.old, int(st.oldIndex[i])
	return rowEqual(mr.row(mr.gmod, i), old.row(old.gmod, oi)) &&
		rowEqual(mr.row(mr.gref, i), old.row(old.gref, oi)) &&
		rowEqual(mr.row(mr.mustmod, i), old.row(old.mustmod, oi)) &&
		rowEqual(mr.row(mr.ueref, i), old.row(old.ueref, oi))
}

// names fills mr's sorted-name views. A procedure whose rows are its old
// version's shares the old lists, which are immutable; only re-solved
// procedures whose rows moved are decoded.
func (st *incremental) names(mr *ModRef, solved []bool) {
	n := len(mr.procs)
	views := make([][]string, 3*n)
	mr.formalInNames, mr.gmodNames, mr.mustModNames = views[:n:n], views[n:2*n:2*n], views[2*n:]
	var scratch []uint64
	for i := 0; i < n; i++ {
		if oi := int(st.oldIndex[i]); oi >= 0 && (!solved[i] || st.rowsMatchOld(mr, i)) {
			mr.formalInNames[i] = st.old.formalInNames[oi]
			mr.gmodNames[i] = st.old.gmodNames[oi]
			mr.mustModNames[i] = st.old.mustModNames[oi]
			continue
		}
		if scratch == nil {
			scratch = make([]uint64, mr.words)
		}
		mr.decodeNames(i, scratch)
	}
}

// components returns the strongly connected component of each of n
// procedures in the call graph whose procedure i calls
// adj[start[i]:start[i+1]] (Tarjan, iterative), and each component's
// member count.
func components(n int, start, adj []int32) (comp, size []int32) {
	const unvisited = -1
	buf := make([]int32, 4*n)
	index, low, stack, comp := buf[:n:n], buf[n:2*n:2*n], buf[2*n:2*n:3*n], buf[3*n:]
	for i := range index {
		index[i] = unvisited
	}
	onStack := make([]bool, n)
	type frame struct{ v, next int32 }
	var frames []frame
	next := int32(0)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{int32(root), start[root]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.next < start[v+1] {
				w := adj[f.next]
				f.next++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, start[w]})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			if low[v] == index[v] {
				c := int32(len(size))
				size = append(size, 0)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = c
					size[c]++
					if w == v {
						break
					}
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, size
}

// reverse returns the reverse of the call graph components reads: the
// procedures calling procedure i are callers[callerStart[i]:callerStart[i+1]],
// with a caller repeated once per call.
func reverse(n int, start, adj []int32) (callerStart, callers []int32) {
	callerStart = make([]int32, n+1)
	for _, c := range adj {
		callerStart[c+1]++
	}
	for i := 1; i <= n; i++ {
		callerStart[i] += callerStart[i-1]
	}
	callers = make([]int32, len(adj))
	fill := slices.Clone(callerStart[:n])
	for i := 0; i < n; i++ {
		for _, c := range adj[start[i]:start[i+1]] {
			callers[fill[c]] = int32(i)
			fill[c]++
		}
	}
	return callerStart, callers
}

// procLocal is the precomputed dataflow view of one procedure being
// solved: its CFG, the direct (callee-independent) effect bits of its
// statements, and its resolved call structure. Extracting this once —
// instead of re-walking the AST on every fixpoint iteration — is where
// most of the dense solver's sequential win comes from.
type procLocal struct {
	graph *cfg.Graph
	size  int // statement count; the chunking weight

	localMod, localRef []uint64 // direct global assignments / references

	genBits []uint64 // nodes×words: direct must-gen bits per CFG node
	useBits []uint64 // nodes×words: direct global uses per CFG node

	// callAt[i] lists the resolved callee procedure indexes of node i
	// (every address-taken procedure for indirect calls), nil for
	// non-call nodes; their MustMod meet and UEREF union are read live
	// from the rows during propagation.
	callAt [][]int

	// preds[i] lists the executable (non-pseudo) predecessors of node i.
	preds [][]int

	// order lists the nodes reachable from entry over executable edges,
	// entry first, in reverse postorder: the order in which a forward
	// sweep meets every node after its predecessors, back edges aside.
	order []int32

	callees []int // unique callee proc indexes, ascending (call graph)
}

// solver carries the shared state of one solve. Rows are indexed by
// program-wide procedure index; a worker only writes the rows of its own
// component and only reads rows of strictly lower condensation levels
// (already final) or its own component, so row access is race-free
// without locks.
type solver struct {
	prog    *lang.Program
	mr      *ModRef
	fns     []*lang.FuncDecl // the subset being solved
	fnProc  []int            // fns index -> procedure index
	solveAt []int            // procedure index -> fns index, -1 if final
	locals  []*procLocal     // by fns index
}

func newSolver(prog *lang.Program, mr *ModRef, fns []*lang.FuncDecl) *solver {
	s := &solver{
		prog:    prog,
		mr:      mr,
		fns:     fns,
		fnProc:  make([]int, len(fns)),
		solveAt: make([]int, len(prog.Funcs)),
		locals:  make([]*procLocal, len(fns)),
	}
	for i := range s.solveAt {
		s.solveAt[i] = -1
	}
	for k, fn := range fns {
		pi := mr.idx[fn.Name]
		s.fnProc[k] = pi
		s.solveAt[pi] = k
	}
	return s
}

// computeModRef solves the four relations over every procedure of prog.
// It also returns the CFG it built for each procedure, indexed like
// prog.Funcs.
func computeModRef(prog *lang.Program, workers int) (*ModRef, []*cfg.Graph) {
	t0 := time.Now()
	in := InternGlobals(prog)
	n := len(prog.Funcs)
	words := in.Words()
	mr := &ModRef{
		in:      in,
		procs:   make([]string, n),
		idx:     make(map[string]int, n),
		words:   words,
		top:     make([]uint64, words),
		gmod:    make([]uint64, n*words),
		gref:    make([]uint64, n*words),
		mustmod: make([]uint64, n*words),
		ueref:   make([]uint64, n*words),
	}
	for id := 0; id < in.Len(); id++ {
		mr.top[id/64] |= 1 << (uint(id) % 64)
	}
	for i, fn := range prog.Funcs {
		mr.procs[i] = fn.Name
		mr.idx[fn.Name] = i
	}
	s := newSolver(prog, mr, prog.Funcs)
	// The address-taken set only resolves indirect calls, so a program
	// without one skips the walk over every expression it takes.
	var addressTaken []int
	if prog.HasIndirectCall() {
		addressTaken = resolveAddressTaken(prog, mr.idx)
	}
	tIntern := time.Now()

	if n > 0 {
		// Local phase: per-procedure CFG + effect-bit extraction, sharded
		// in chunks balanced by statement count.
		sizes := make([]int, n)
		for k, fn := range prog.Funcs {
			sizes[k] = fn.NumStmts()
		}
		par.ForWeighted(parWorkers(workers, total(sizes)), n,
			func(k int) int { return sizes[k] },
			func(k int) { s.locals[k] = s.buildLocal(k, addressTaken) })
	}
	tLocal := time.Now()
	s.solveLevels(workers)

	// Precompute the sorted-name views the SDG builder reads per skeleton
	// and per call site: FormalInGlobals = UEREF ∪ (GMOD − MustMod).
	views := make([][]string, 3*n)
	mr.formalInNames, mr.gmodNames, mr.mustModNames = views[:n:n], views[n:2*n:2*n], views[2*n:]
	scratch := make([]uint64, words)
	for i := 0; i < n; i++ {
		mr.decodeNames(i, scratch)
	}
	tFix := time.Now()
	mr.stats = ModRefStats{
		Intern:   tIntern.Sub(t0),
		Local:    tLocal.Sub(tIntern),
		Fixpoint: tFix.Sub(tLocal),
	}
	graphs := make([]*cfg.Graph, n)
	for k := range s.locals {
		graphs[k] = s.locals[k].graph
	}
	return mr, graphs
}

// decodeNames fills procedure i's sorted-name views from its rows, with
// scratch one row of working space.
func (mr *ModRef) decodeNames(i int, scratch []uint64) {
	gm := mr.row(mr.gmod, i)
	mm := mr.row(mr.mustmod, i)
	ue := mr.row(mr.ueref, i)
	for w := range scratch {
		scratch[w] = ue[w] | (gm[w] &^ mm[w])
	}
	mr.formalInNames[i] = mr.in.decodeNames(scratch)
	mr.gmodNames[i] = mr.in.decodeNames(gm)
	mr.mustModNames[i] = mr.in.decodeNames(mm)
}

// solveLevels solves the procedures of s.fns, whose locals are built: the
// call graph restricted to them, condensed into SCCs and grouped into
// levels (level = 1 + max callee level), is solved callees first.
func (s *solver) solveLevels(workers int) {
	if len(s.fns) == 0 {
		return
	}
	succs := make([][]int, len(s.fns))
	for k := range s.locals {
		for _, pi := range s.locals[k].callees {
			if j := s.solveAt[pi]; j >= 0 {
				succs[k] = append(succs[k], j)
			}
		}
	}
	levels := sccLevels(len(s.fns), succs)

	// Solve levels bottom-up; components within a level are independent
	// (a callee is always strictly lower-level) and fan out in
	// statement-count-balanced chunks.
	for _, comps := range levels {
		comps := comps
		weight := func(ci int) int {
			w := 0
			for _, k := range comps[ci] {
				w += s.locals[k].size
			}
			return w
		}
		lw := 0
		for ci := range comps {
			lw += weight(ci)
		}
		par.ForWeighted(parWorkers(workers, lw), len(comps), weight,
			func(ci int) { s.solveComponent(comps[ci]) })
	}
}

// parMinStmts is the statement-count floor below which a phase runs
// inline: fanning a few hundred statements across goroutines costs more
// in scheduling than the word-wise solve itself.
const parMinStmts = 1024

func parWorkers(workers, totalWeight int) int {
	if totalWeight < parMinStmts {
		return 1
	}
	return workers
}

func total(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// buildLocal extracts fns[k]'s CFG and direct effect bits.
func (s *solver) buildLocal(k int, addressTaken []int) *procLocal {
	fn := s.fns[k]
	mr := s.mr
	words := mr.words
	g := cfg.Build(fn)
	loc := &procLocal{graph: g}
	nn := len(g.Nodes)
	loc.size = nn - 2 // every statement is one node, besides entry and exit
	rows := make([]uint64, (2+2*nn)*words)
	loc.localMod, loc.localRef = rows[:words:words], rows[words:2*words:2*words]
	loc.genBits = rows[2*words : (2+nn)*words : (2+nn)*words]
	loc.useBits = rows[(2+nn)*words:]
	loc.callAt = make([][]int, nn)
	loc.preds = make([][]int, nn)
	npreds := 0
	for ni := range g.Preds {
		npreds += len(g.Preds[ni])
	}
	preds := make([]int, 0, npreds)
	for ni := range g.Preds {
		lo := len(preds)
		for _, e := range g.Preds[ni] {
			if !e.Pseudo {
				preds = append(preds, e.To)
			}
		}
		loc.preds[ni] = preds[lo:len(preds):len(preds)]
	}
	loc.order = reversePostorder(g)

	// The interner holds exactly the non-fnptr globals, so an ID lookup
	// doubles as the is-global test (name-based, like the map solver: a
	// local shadowing a global's name is treated as the global).
	setVar := func(row []uint64, name string) {
		if id, ok := mr.in.ID(name); ok {
			row[id/64] |= 1 << (uint(id) % 64)
		}
	}

	// direct holds the callee of every direct call node, so each node's
	// one-element callee list is a view into it.
	direct := make([]int, 0, nn)
	for _, node := range g.Nodes {
		if node.Stmt == nil {
			continue
		}
		gen := loc.genBits[node.ID*words : (node.ID+1)*words]
		use := loc.useBits[node.ID*words : (node.ID+1)*words]
		// Direct uses: every global referenced in the node's expressions.
		for _, e := range lang.StmtExprs(node.Stmt) {
			refExpr(mr.in, use, loc.localRef, e)
		}
		switch x := node.Stmt.(type) {
		case *lang.AssignStmt:
			setVar(gen, x.LHS)
			setVar(loc.localMod, x.LHS)
		case *lang.ScanfStmt:
			setVar(gen, x.Var)
			setVar(loc.localMod, x.Var)
		case *lang.CallStmt:
			setVar(gen, x.Target)
			setVar(loc.localMod, x.Target)
			var callees []int
			if x.Indirect {
				callees = addressTaken
			} else if pi, ok := mr.idx[x.Callee]; ok {
				direct = append(direct, pi)
				callees = direct[len(direct)-1 : len(direct) : len(direct)]
			}
			if len(callees) > 0 {
				loc.callAt[node.ID] = callees
				loc.callees = append(loc.callees, callees...)
			}
		}
	}
	sort.Ints(loc.callees)
	loc.callees = slices.Compact(loc.callees)
	return loc
}

// refExpr sets, in both rows, the bit of every global e references.
func refExpr(in *Interner, a, b []uint64, e lang.Expr) {
	switch x := e.(type) {
	case *lang.VarRef:
		if id, ok := in.ID(x.Name); ok {
			a[id/64] |= 1 << (uint(id) % 64)
			b[id/64] |= 1 << (uint(id) % 64)
		}
	case *lang.Unary:
		refExpr(in, a, b, x.X)
	case *lang.Binary:
		refExpr(in, a, b, x.X)
		refExpr(in, a, b, x.Y)
	case *lang.CallExpr:
		for _, arg := range x.Args {
			refExpr(in, a, b, arg)
		}
	}
}

// sccLevels computes the strongly connected components of the call graph
// (Tarjan, iterative) and groups them by condensation level, lowest
// (callee-most) first. Component member lists and the components within a
// level are in ascending function order, so the schedule is deterministic.
func sccLevels(n int, succs [][]int) [][][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	compOf := [][]int{}
	next := 0

	type frame struct{ v, ci int }
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ci == 0 {
				index[v], low[v] = next, next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ci < len(succs[v]) {
				w := succs[v][f.ci]
				f.ci++
				if index[w] == unvisited {
					frames = append(frames, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(compOf)
					members = append(members, w)
					if w == v {
						break
					}
				}
				sort.Ints(members)
				compOf = append(compOf, members)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	// Level of a component: 1 + max level of callee components.
	level := make([]int, len(compOf))
	maxLevel := 0
	// Tarjan emits components in reverse topological order (callees
	// before callers), so one pass in emission order suffices.
	for ci, members := range compOf {
		lv := 0
		for _, v := range members {
			for _, w := range succs[v] {
				if comp[w] != ci && level[comp[w]]+1 > lv {
					lv = level[comp[w]] + 1
				}
			}
		}
		level[ci] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	out := make([][][]int, maxLevel+1)
	for ci, members := range compOf {
		out[level[ci]] = append(out[level[ci]], members)
	}
	for _, comps := range out {
		sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	}
	return out
}

// solveComponent runs the three summary fixpoints over one SCC (members
// are fns indexes), reading already-final callee rows from lower levels
// and writing the component members' rows. Non-recursive components
// converge in a single pass of each analysis.
func (s *solver) solveComponent(members []int) {
	mr := s.mr
	words := mr.words
	recursive := len(members) > 1
	if !recursive {
		k := members[0]
		pi := s.fnProc[k]
		for _, c := range s.locals[k].callees {
			if c == pi {
				recursive = true
				break
			}
		}
	}

	// GMOD/GREF: least fixed point, growing. Rows start at the direct
	// effects; each pass ORs in the callee rows word-wise.
	for _, k := range members {
		pi := s.fnProc[k]
		copy(mr.row(mr.gmod, pi), s.locals[k].localMod)
		copy(mr.row(mr.gref, pi), s.locals[k].localRef)
	}
	for {
		changed := false
		for _, k := range members {
			pi := s.fnProc[k]
			gm := mr.row(mr.gmod, pi)
			gr := mr.row(mr.gref, pi)
			for _, callees := range s.locals[k].callAt {
				for _, c := range callees {
					if orInto(gm, mr.row(mr.gmod, c)) {
						changed = true
					}
					if orInto(gr, mr.row(mr.gref, c)) {
						changed = true
					}
				}
			}
		}
		if !recursive || !changed {
			break
		}
	}

	// MustMod: greatest fixed point, shrinking. Needs a per-function
	// forward must-analysis over the executable CFG; recursive components
	// re-run it until the exit rows stabilize.
	outs := make([][]uint64, len(members))
	for mi, k := range members {
		pi := s.fnProc[k]
		copy(mr.row(mr.mustmod, pi), mr.top) // top; shrinks to greatest fixed point
		outs[mi] = make([]uint64, len(s.locals[k].graph.Nodes)*words)
	}
	for {
		changed := false
		for mi, k := range members {
			pi := s.fnProc[k]
			s.mustDefOuts(k, outs[mi])
			got := outs[mi][s.locals[k].graph.Exit.ID*words : (s.locals[k].graph.Exit.ID+1)*words]
			cur := mr.row(mr.mustmod, pi)
			if !rowEqual(got, cur) {
				copy(cur, got)
				changed = true
			}
		}
		if !recursive || !changed {
			break
		}
	}
	// Recompute the per-node outs once against the converged MustMod rows;
	// the UEREF phase reads them as its kill information.
	if recursive {
		for mi, k := range members {
			s.mustDefOuts(k, outs[mi])
		}
	}

	// UEREF: least fixed point, growing. A global is upward-exposed in fn
	// if some node uses it (directly, or via a callee's UEREF) at a point
	// where it is not yet definitely assigned.
	in := make([]uint64, words)
	uses := make([]uint64, words)
	for {
		changed := false
		for mi, k := range members {
			loc := s.locals[k]
			pi := s.fnProc[k]
			ue := mr.row(mr.ueref, pi)
			out := outs[mi]
			// A node's uses: its direct global references plus, for call
			// nodes, the callees' upward-exposed sets.
			for ni := range loc.graph.Nodes {
				copy(uses, loc.useBits[ni*words:(ni+1)*words])
				for _, c := range loc.callAt[ni] {
					orInto(uses, mr.row(mr.ueref, c))
				}
				if rowIsEmpty(uses) {
					continue
				}
				s.mustDefIn(loc, out, ni, in)
				for w := 0; w < words; w++ {
					if n := ue[w] | (uses[w] &^ in[w]); n != ue[w] {
						ue[w] = n
						changed = true
					}
				}
			}
		}
		if !recursive || !changed {
			break
		}
	}
}

// mustDefIn computes, into in, the set of globals definitely assigned
// before node ni begins: the meet (AND) over its executable predecessors'
// out rows; ⊥ for the entry, ⊤ for unreachable nodes.
func (s *solver) mustDefIn(loc *procLocal, outs []uint64, ni int, in []uint64) {
	words := s.mr.words
	if loc.graph.Nodes[ni].Kind == cfg.KindEntry {
		for w := range in {
			in[w] = 0
		}
		return
	}
	preds := loc.preds[ni]
	if len(preds) == 0 {
		copy(in, s.mr.top) // unreachable
		return
	}
	copy(in, outs[preds[0]*words:(preds[0]+1)*words])
	for _, p := range preds[1:] {
		andInto(in, outs[p*words:(p+1)*words])
	}
}

// mustDefOuts runs the intraprocedural forward must-assigned analysis for
// fns[k] using the current MustMod rows for callees, filling the per-node
// "definitely assigned at node end" rows (nodes×words) in outs.
func (s *solver) mustDefOuts(k int, outs []uint64) {
	mr := s.mr
	words := mr.words
	loc := s.locals[k]
	g := loc.graph
	n := len(g.Nodes)
	// out[i] = globals definitely assigned on every path from entry to the
	// end of node i. Initialize to top (all globals) except entry.
	for ni := 0; ni < n; ni++ {
		row := outs[ni*words : (ni+1)*words]
		if g.Nodes[ni].Kind == cfg.KindEntry {
			for w := range row {
				row[w] = 0
			}
		} else {
			copy(row, mr.top)
		}
	}

	// Sweep in reverse postorder: cfg.Build numbers statements back to
	// front, so a sweep in ID order would carry a fact one statement a
	// sweep. Nodes not reachable from entry keep ⊤, their fixpoint value:
	// every predecessor of one is unreachable too.
	in := make([]uint64, words)
	meet := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for _, v := range loc.order[1:] {
			ni := int(v)
			s.mustDefIn(loc, outs, ni, in)
			// gen: the node's direct definite assignments, plus — for call
			// nodes — the meet of the callees' MustMod rows.
			gen := loc.genBits[ni*words : (ni+1)*words]
			for w := 0; w < words; w++ {
				in[w] |= gen[w]
			}
			if callees := loc.callAt[ni]; len(callees) > 0 {
				copy(meet, mr.row(mr.mustmod, callees[0]))
				for _, c := range callees[1:] {
					andInto(meet, mr.row(mr.mustmod, c))
				}
				for w := 0; w < words; w++ {
					in[w] |= meet[w]
				}
			}
			row := outs[ni*words : (ni+1)*words]
			if !rowEqual(in, row) {
				copy(row, in)
				changed = true
			}
		}
	}
}

// reversePostorder returns the nodes of g reachable from its entry over
// executable edges, in reverse postorder, entry first.
func reversePostorder(g *cfg.Graph) []int32 {
	n := len(g.Nodes)
	buf := make([]int32, 2*n)
	stack, post := buf[:0:n], buf[n:n]
	// next[v] is 1 + the index of v's next successor to visit, and 0
	// while v is unvisited; a node has at most two successors.
	next := make([]uint8, n)
	next[g.Entry.ID] = 1
	stack = append(stack, int32(g.Entry.ID))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if k := int(next[v]) - 1; k < len(g.Succs[v]) {
			next[v]++
			if e := g.Succs[v][k]; !e.Pseudo && next[e.To] == 0 {
				next[e.To] = 1
				stack = append(stack, int32(e.To))
			}
			continue
		}
		stack = stack[:len(stack)-1]
		post = append(post, v)
	}
	slices.Reverse(post)
	return post
}

// addressTakenFuncs returns the functions whose address is taken anywhere in
// the program (assigned to a fnptr), sorted for determinism.
func addressTakenFuncs(prog *lang.Program) []string {
	set := StringSet{}
	for _, fn := range prog.Funcs {
		for _, s := range fn.Stmts() {
			for _, e := range lang.StmtExprs(s) {
				lang.WalkExprs(e, func(x lang.Expr) {
					if fr, ok := x.(*lang.FuncRef); ok {
						set[fr.Name] = true
					}
				})
			}
		}
	}
	return set.Sorted()
}

// resolveAddressTaken maps the address-taken function names to procedure
// indexes (dropping names with no declaration, as the map view did).
func resolveAddressTaken(prog *lang.Program, idx map[string]int) []int {
	names := addressTakenFuncs(prog)
	out := make([]int, 0, len(names))
	for _, name := range names {
		if pi, ok := idx[name]; ok {
			out = append(out, pi)
		}
	}
	return out
}
