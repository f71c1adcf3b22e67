package sdg

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
)

// This file implements the versioned binary snapshot codec behind the
// persistent engine store (internal/store): EncodeSnapshot flattens a
// built graph into bytes, DecodeSnapshot reconstructs an equivalent graph.
//
// The codec leans on the same determinism contract the incremental engine
// relies on: print/parse is a fixed point (lang.FuzzRoundTrip) and a
// procedure's statement pre-order survives the round trip, so statement
// identity can be stored as a (procedure, pre-order ordinal) pair against
// the snapshot's own normalized source text instead of serializing ASTs.
// Structures that are cheaper to rebuild than to store — the mod/ref
// relations, build signatures, and procedure content hashes — are not
// serialized at all; the snapshot carries a rebuild marker and the decoder
// recomputes them from the parsed source (dataflow.ComputeModRefWorkers is
// schedule-independent and exact, so the rebuilt rows match the originals
// word for word). Vertex-derived redundancy is likewise dropped: procedure
// vertex lists, formal lists, entry vertices, and call-site actual lists
// are all reconstructed from the vertex section, whose order is the
// original creation order.
//
// The decoder is designed to run on hostile bytes (store corruption that
// slipped past CRCs, fuzz inputs): every index is bounds-checked before
// use, every count is validated against the remaining input length before
// any allocation sized by it, and every failure is an error — never a
// panic, never an over-allocation.

// snapshotMagic identifies engine snapshots; the trailing byte is the
// format version. Any incompatible layout change must bump it.
const snapshotMagic = "SSNAP\x00\x00\x02"

const snapFlagModRefRebuilt = 1 << 1 // mod/ref is a rebuild marker, not stored rows

// maxSnapshotParam bounds the Param field of any snapshot vertex; it only
// exists to keep a corrupt snapshot from sizing an allocation.
const maxSnapshotParam = 1 << 20

// EncodeSnapshot serializes a built graph. The graph must have been
// produced by Build, Advance or DecodeSnapshot (one Proc per program
// function, in order).
func EncodeSnapshot(g *Graph) ([]byte, error) {
	if g == nil || g.Prog == nil {
		return nil, fmt.Errorf("sdg: snapshot of nil graph")
	}
	if len(g.Procs) != len(g.Prog.Funcs) {
		return nil, fmt.Errorf("sdg: snapshot: %d procs vs %d functions", len(g.Procs), len(g.Prog.Funcs))
	}
	src := lang.Print(g.Prog)
	// The decoder reconstructs statement identity by re-parsing src, so the
	// round trip must reproduce this exact program shape. The property is
	// fuzz-tested program-wide; verify it for this graph anyway — an
	// unencodable graph must fail here, at write time, not at recovery.
	reparsed, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("sdg: snapshot source does not reparse: %w", err)
	}
	if out := lang.Print(reparsed); out != src {
		return nil, fmt.Errorf("sdg: snapshot source is not a print/parse fixed point")
	}
	if len(reparsed.Funcs) != len(g.Prog.Funcs) {
		return nil, fmt.Errorf("sdg: snapshot round trip changed function count")
	}
	stmtOrd := make([]map[lang.Stmt]int, len(g.Procs))
	for i, fn := range g.Prog.Funcs {
		rfn := reparsed.Funcs[i]
		if fn.Name != rfn.Name || !sameStmtShape(fn, rfn) {
			return nil, fmt.Errorf("sdg: snapshot round trip changed procedure %s", fn.Name)
		}
		stmts := fn.Stmts()
		ord := make(map[lang.Stmt]int, len(stmts))
		for j, s := range stmts {
			ord[s] = j
		}
		stmtOrd[i] = ord
	}

	var flags byte = snapFlagModRefRebuilt

	// String table for the names that repeat across vertices and sites.
	strIdx := map[string]int{}
	var strs []string
	intern := func(s string) int {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = len(strs)
		strs = append(strs, s)
		return len(strs) - 1
	}
	for i := range g.Vertices {
		if v := &g.Vertices[i]; v.Var != "" {
			intern(v.Var)
		}
	}
	for _, s := range g.Sites {
		intern(s.Callee)
	}

	var b []byte
	b = append(b, snapshotMagic...)
	b = append(b, flags)
	b = appendUvarint(b, uint64(len(src)))
	b = append(b, src...)
	b = appendUvarint(b, uint64(len(g.Vertices)))
	b = appendUvarint(b, uint64(len(g.Sites)))
	b = appendUvarint(b, uint64(g.NumEdges()))
	b = appendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = appendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if v.Proc < 0 || v.Proc >= len(g.Procs) {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d has proc %d", v.ID, v.Proc)
		}
		b = append(b, byte(v.Kind))
		b = appendUvarint(b, uint64(v.Proc))
		b = appendUvarint(b, uint64(v.Site+1))
		b = appendUvarint(b, uint64(v.Param+1))
		stmt := uint64(0)
		if v.Stmt != nil {
			o, ok := stmtOrd[v.Proc][v.Stmt]
			if !ok {
				return nil, fmt.Errorf("sdg: snapshot: vertex %d statement not in procedure %s", v.ID, g.Procs[v.Proc].Name)
			}
			stmt = uint64(o + 1)
		}
		b = appendUvarint(b, stmt)
		vr := uint64(0)
		if v.Var != "" {
			vr = uint64(strIdx[v.Var] + 1)
		}
		b = appendUvarint(b, vr)
		var fl byte
		if v.IsReturn {
			fl = 1
		}
		b = append(b, fl)
		label := g.Label(v.ID)
		b = appendUvarint(b, uint64(len(label)))
		b = append(b, label...)
	}
	for _, s := range g.Sites {
		b = appendUvarint(b, uint64(strIdx[s.Callee]))
		if s.Lib {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, e := range g.Edges() {
		b = appendUvarint(b, uint64(e.From))
		b = appendUvarint(b, uint64(e.To))
		b = append(b, byte(e.Kind))
	}
	return b, nil
}

// sameStmtShape reports whether two versions of a function have identical
// statement pre-orders (count and dynamic statement kinds) — the property
// the ordinal-based statement encoding depends on.
func sameStmtShape(a, b *lang.FuncDecl) bool {
	as, bs := a.Stmts(), b.Stmts()
	if len(as) != len(bs) || len(a.Params) != len(b.Params) || a.ReturnsValue != b.ReturnsValue {
		return false
	}
	for i := range as {
		if reflect.TypeOf(as[i]) != reflect.TypeOf(bs[i]) {
			return false
		}
	}
	return true
}

// snapReader is a bounds-checked cursor over snapshot bytes. Every read
// returns an error on truncation instead of panicking.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.b) - r.off }

func (r *snapReader) readByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("sdg: snapshot truncated at byte %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *snapReader) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("sdg: snapshot: bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// readCount reads a count that sizes an upcoming allocation and validates
// it against the remaining input: each counted item occupies at least
// minBytes in the encoding, so a count the input cannot possibly hold is
// corruption — rejecting it here is what keeps the decoder from
// over-allocating on arbitrary bytes.
func (r *snapReader) readCount(what string, minBytes int) (int, error) {
	v, err := r.readUvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining()/minBytes)+1 {
		return 0, fmt.Errorf("sdg: snapshot: %s count %d exceeds input", what, v)
	}
	return int(v), nil
}

// skip advances past n bytes.
func (r *snapReader) skip(n int) error {
	if n < 0 || n > r.remaining() {
		return fmt.Errorf("sdg: snapshot: %d bytes exceed input", n)
	}
	r.off += n
	return nil
}

func (r *snapReader) readString(n int) (string, error) {
	if n < 0 || n > r.remaining() {
		return "", fmt.Errorf("sdg: snapshot: string of %d bytes exceeds input", n)
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

// DecodeSnapshot reconstructs a graph from EncodeSnapshot bytes. The
// result is interchangeable with building the snapshot's source from
// scratch: identical vertex and site numbering, identical edge set, and
// freshly recomputed mod/ref state, so version chains can advance from it.
// Corrupt or truncated input returns an error; the decoder never panics
// and never allocates more than a small multiple of len(data).
func DecodeSnapshot(data []byte) (*Graph, error) {
	r := &snapReader{b: data}
	magic, err := r.readString(len(snapshotMagic))
	if err != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("sdg: not an engine snapshot (bad magic)")
	}
	flags, err := r.readByte()
	if err != nil {
		return nil, err
	}
	srcLen, err := r.readCount("source", 1)
	if err != nil {
		return nil, err
	}
	src, err := r.readString(srcLen)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("sdg: snapshot source does not parse: %w", err)
	}
	if err := checkDirectCalls(prog); err != nil {
		return nil, fmt.Errorf("sdg: snapshot source: %v", err)
	}

	// minimum encoded sizes: vertex = kind+proc+site+param+stmt+var+flags+label ≥ 8,
	// site = callee+lib ≥ 2, edge = from+to+kind ≥ 3.
	nVerts, err := r.readCount("vertex", 8)
	if err != nil {
		return nil, err
	}
	nSites, err := r.readCount("site", 2)
	if err != nil {
		return nil, err
	}
	nEdges, err := r.readCount("edge", 3)
	if err != nil {
		return nil, err
	}
	nStrs, err := r.readCount("string", 1)
	if err != nil {
		return nil, err
	}
	strs := make([]string, nStrs)
	for i := range strs {
		n, err := r.readCount("string bytes", 1)
		if err != nil {
			return nil, err
		}
		if strs[i], err = r.readString(n); err != nil {
			return nil, err
		}
	}

	g := &Graph{Prog: prog, ProcByName: map[string]int{}}
	stmtsOf := make([][]lang.Stmt, len(prog.Funcs))
	procs := make([]Proc, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		procs[i] = Proc{Index: i, Name: fn.Name, Fn: fn}
		g.Procs = append(g.Procs, &procs[i])
		g.ProcByName[fn.Name] = i
		stmtsOf[i] = fn.Stmts()
	}

	siteVals := make([]Site, nSites)
	sites := make([]*Site, nSites)
	for i := range sites {
		siteVals[i] = Site{ID: SiteID(i), CallerProc: -1, CallVertex: -1}
		sites[i] = &siteVals[i]
	}
	procSize := make([]int, len(g.Procs))
	hasEntry := make([]bool, len(g.Procs))
	g.Vertices = make([]Vertex, 0, nVerts)
	for i := 0; i < nVerts; i++ {
		kind, err := r.readByte()
		if err != nil {
			return nil, err
		}
		if VertexKind(kind) > KindPredicate {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d has kind %d", i, kind)
		}
		procU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if procU >= uint64(len(g.Procs)) {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d references procedure %d of %d", i, procU, len(g.Procs))
		}
		proc := int(procU)
		siteU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if siteU > uint64(nSites) {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d references site %d of %d", i, siteU, nSites)
		}
		paramU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if paramU > maxSnapshotParam {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d has parameter index %d", i, paramU)
		}
		stmtU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if stmtU > uint64(len(stmtsOf[proc])) {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d references statement %d of %d in %s",
				i, stmtU, len(stmtsOf[proc]), g.Procs[proc].Name)
		}
		varU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if varU > uint64(len(strs)) {
			return nil, fmt.Errorf("sdg: snapshot: vertex %d references string %d of %d", i, varU, len(strs))
		}
		vfl, err := r.readByte()
		if err != nil {
			return nil, err
		}
		// The label is stored for readers of the format; Graph.Label
		// recomputes it from the vertex, so the decoder skips it.
		labelLen, err := r.readCount("label bytes", 1)
		if err != nil {
			return nil, err
		}
		if err := r.skip(labelLen); err != nil {
			return nil, err
		}
		v := Vertex{
			ID:       VertexID(i),
			Kind:     VertexKind(kind),
			Proc:     proc,
			Site:     SiteID(siteU) - 1,
			Param:    int(paramU) - 1,
			IsReturn: vfl&1 != 0,
		}
		if stmtU > 0 {
			v.Stmt = stmtsOf[proc][stmtU-1]
		}
		if varU > 0 {
			v.Var = strs[varU-1]
		}
		if err := checkVertexShape(&v, i); err != nil {
			return nil, err
		}
		id := v.ID
		g.Vertices = append(g.Vertices, v)
		procSize[proc]++
		p := g.Procs[proc]
		switch v.Kind {
		case KindEntry:
			if hasEntry[proc] {
				return nil, fmt.Errorf("sdg: snapshot: procedure %s has two entry vertices", p.Name)
			}
			hasEntry[proc] = true
			p.Entry = id
		case KindFormalIn:
			if v.Param >= len(p.Fn.Params) && v.Param != NoParam {
				return nil, fmt.Errorf("sdg: snapshot: formal-in %d of %s exceeds arity %d", v.Param, p.Name, len(p.Fn.Params))
			}
			p.FormalIns = append(p.FormalIns, id)
		case KindFormalOut:
			p.FormalOuts = append(p.FormalOuts, id)
		}
		if v.Site >= 0 {
			s := sites[v.Site]
			switch v.Kind {
			case KindCall:
				if s.CallVertex >= 0 {
					return nil, fmt.Errorf("sdg: snapshot: site %d has two call vertices", v.Site)
				}
				s.CallVertex = id
				s.CallerProc = proc
				s.Stmt = v.Stmt
			case KindActualIn:
				s.ActualIns = append(s.ActualIns, id)
			case KindActualOut:
				s.ActualOuts = append(s.ActualOuts, id)
			default:
				return nil, fmt.Errorf("sdg: snapshot: %s vertex %d carries a site", v.Kind, i)
			}
		}
	}

	// Each procedure's vertex list, in vertex order, from one backing.
	ids := make([]VertexID, len(g.Vertices))
	off := 0
	for pi, p := range g.Procs {
		p.Vertices = ids[off : off : off+procSize[pi]]
		off += procSize[pi]
	}
	for i := range g.Vertices {
		p := g.Procs[g.Vertices[i].Proc]
		p.Vertices = append(p.Vertices, VertexID(i))
	}

	for i := range sites {
		calleeU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if calleeU >= uint64(len(strs)) {
			return nil, fmt.Errorf("sdg: snapshot: site %d references string %d of %d", i, calleeU, len(strs))
		}
		lib, err := r.readByte()
		if err != nil {
			return nil, err
		}
		s := sites[i]
		s.Callee = strs[calleeU]
		s.Lib = lib != 0
		if s.CallVertex < 0 {
			return nil, fmt.Errorf("sdg: snapshot: site %d has no call vertex", i)
		}
		if s.Stmt == nil {
			return nil, fmt.Errorf("sdg: snapshot: site %d has no statement", i)
		}
		if !s.Lib {
			if _, ok := g.ProcByName[s.Callee]; !ok {
				return nil, fmt.Errorf("sdg: snapshot: site %d calls unknown procedure %q", i, s.Callee)
			}
		}
		for _, as := range [][]VertexID{s.ActualIns, s.ActualOuts} {
			for _, a := range as {
				if g.Vertices[a].Proc != s.CallerProc {
					return nil, fmt.Errorf("sdg: snapshot: site %d spans procedures", i)
				}
			}
		}
		g.Sites = append(g.Sites, s)
		g.Procs[s.CallerProc].Sites = append(g.Procs[s.CallerProc].Sites, s.ID)
	}

	edges := make([]Edge, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		fromU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		toU, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		kind, err := r.readByte()
		if err != nil {
			return nil, err
		}
		if fromU >= uint64(nVerts) || toU >= uint64(nVerts) {
			return nil, fmt.Errorf("sdg: snapshot: edge %d references vertex %d/%d of %d", i, fromU, toU, nVerts)
		}
		if EdgeKind(kind) > EdgeParamOut {
			return nil, fmt.Errorf("sdg: snapshot: edge %d has kind %d", i, kind)
		}
		edges = append(edges, Edge{From: VertexID(fromU), To: VertexID(toU), Kind: EdgeKind(kind)})
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("sdg: snapshot: %d trailing bytes", r.remaining())
	}
	g.InstallEdges(edges)
	if err := checkNoDuplicateEdges(g); err != nil {
		return nil, fmt.Errorf("sdg: snapshot: %v", err)
	}

	for _, p := range g.Procs {
		if len(p.Vertices) == 0 || g.Vertices[p.Vertices[0]].Kind != KindEntry {
			return nil, fmt.Errorf("sdg: snapshot: procedure %s has no entry vertex", p.Name)
		}
	}

	// Rebuild-marker structures: mod/ref, build signatures, and procedure
	// hashes are recomputed from the parsed source — exact fixpoints, so
	// the rebuilt state equals what the original build held, and Advance
	// from this graph behaves like Advance from the original.
	if flags&snapFlagModRefRebuilt != 0 {
		mr := dataflow.ComputeModRefWorkers(prog, 1)
		g.modref = mr
		g.buildSigs, g.procHashes = computeBuildSigsWorkers(prog, mr, 1)
	}
	return g, nil
}

// checkNoDuplicateEdges rejects a graph with an out list that repeats a
// (target, kind) pair, in O(vertices + edges): mark[5·to + kind] holds the
// last source vertex (plus one) that had that edge.
func checkNoDuplicateEdges(g *Graph) error {
	const kinds = int(EdgeParamOut) + 1
	mark := make([]int32, kinds*len(g.Vertices))
	for v := range g.Vertices {
		for _, e := range g.Out(VertexID(v)) {
			k := kinds*int(e.To) + int(e.Kind)
			if mark[k] == int32(v)+1 {
				return fmt.Errorf("duplicate edge v%d -%s-> v%d", v, e.Kind, e.To)
			}
			mark[k] = int32(v) + 1
		}
	}
	return nil
}

// checkVertexShape enforces the kind-dependent invariants the builder
// establishes: skeleton vertices carry no statement, statement-level
// vertices do, and predicate/call kinds sit on the right statement types.
func checkVertexShape(v *Vertex, i int) error {
	switch v.Kind {
	case KindEntry, KindFormalIn, KindFormalOut:
		if v.Stmt != nil {
			return fmt.Errorf("sdg: snapshot: %s vertex %d carries a statement", v.Kind, i)
		}
		if v.Site >= 0 {
			return fmt.Errorf("sdg: snapshot: %s vertex %d carries a site", v.Kind, i)
		}
	case KindStmt:
		if v.Stmt == nil {
			return fmt.Errorf("sdg: snapshot: stmt vertex %d has no statement", i)
		}
	case KindPredicate:
		switch v.Stmt.(type) {
		case *lang.IfStmt, *lang.WhileStmt:
		default:
			return fmt.Errorf("sdg: snapshot: predicate vertex %d on %T", i, v.Stmt)
		}
	case KindCall, KindActualIn, KindActualOut:
		if v.Site < 0 {
			return fmt.Errorf("sdg: snapshot: %s vertex %d has no site", v.Kind, i)
		}
		switch v.Stmt.(type) {
		case *lang.CallStmt, *lang.PrintfStmt, *lang.ScanfStmt:
		default:
			return fmt.Errorf("sdg: snapshot: %s vertex %d on %T", v.Kind, i, v.Stmt)
		}
		if v.Kind == KindActualIn && v.Param != NoParam && v.Param >= len(callArgs(v.Stmt)) {
			return fmt.Errorf("sdg: snapshot: actual-in %d has argument %d of %d", i, v.Param, len(callArgs(v.Stmt)))
		}
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}
