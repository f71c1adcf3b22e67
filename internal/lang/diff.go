package lang

import "sort"

// ProcHash returns a normalization-stable content hash of one function: the
// FNV-64a of its pretty-printed source. Because Print renders the normalized
// AST, two versions of a procedure that differ only in whitespace, comments,
// or pre-normalization call nesting hash identically, while any change to
// its signature, statements, or referenced names changes the hash. Source
// positions are not part of the printed form, so edits elsewhere in the file
// that merely shift a procedure's lines leave its hash untouched.
func ProcHash(f *FuncDecl) uint64 {
	var p printer
	return p.procHash(f)
}

// procHash prints f into p's emptied buffer and hashes the printed bytes
// where they lie, so one printer and one buffer serve every procedure of
// a program.
func (p *printer) procHash(f *FuncDecl) uint64 {
	p.sb.reset()
	p.fn(f)
	h := newFNV()
	h.str(p.sb.String())
	return uint64(h)
}

// GlobalsHash returns a content hash of the program's global declarations
// (names, order, and fnptr-ness), in the same normalization-stable sense as
// ProcHash.
func GlobalsHash(p *Program) uint64 {
	h := newFNV()
	for _, g := range p.Globals {
		if g.IsFnPtr {
			h.str("fnptr")
		} else {
			h.str("int")
		}
		h.str(" ")
		h.str(g.Name)
		h.str(";")
	}
	return uint64(h)
}

// fnv64 is 64-bit FNV-1a, the hash hash/fnv's New64a computes, held by
// value so that hashing allocates nothing.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv64(s[i])) * 1099511628211
	}
}

func (h *fnv64) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ fnv64(c)) * 1099511628211
	}
}

// ProgramDiff classifies an edit between two program versions at procedure
// granularity. Procedures are matched by name: a rename therefore shows up
// as one removal plus one addition, which is exactly how a
// dependence-graph-level consumer must treat it (call sites referring to
// the old name are gone, sites referring to the new name are new).
type ProgramDiff struct {
	// Unchanged lists procedures present in both versions with identical
	// normalized source (ProcHash), sorted by name.
	Unchanged []string
	// Changed lists procedures present in both versions whose normalized
	// source differs, sorted by name.
	Changed []string
	// Added / Removed list procedures present only in the new / old
	// version, sorted by name.
	Added   []string
	Removed []string
	// GlobalsChanged reports whether the global declarations differ.
	GlobalsChanged bool
}

// HasChanges reports whether the diff is non-empty.
func (d ProgramDiff) HasChanges() bool {
	return len(d.Changed)+len(d.Added)+len(d.Removed) > 0 || d.GlobalsChanged
}

// ProcHashes returns the ProcHash of every function, indexed like
// p.Funcs. A program Canonicalize printed answers from its record, which
// the caller must not modify; any other is printed once, through one
// printer.
func ProcHashes(p *Program) []uint64 {
	if p.canon != nil && len(p.canon.hashes) == len(p.Funcs) {
		return p.canon.hashes
	}
	out := make([]uint64, len(p.Funcs))
	var pr printer
	for i, f := range p.Funcs {
		out[i] = pr.procHash(f)
	}
	return out
}

// DiffPrograms compares two parsed (normalized) programs procedure by
// procedure. It is the front half of incremental SDG construction: the
// caller combines the textual classification with interprocedural side
// effects (mod/ref interfaces) to decide which procedure dependence graphs
// can be reused.
func DiffPrograms(old, new *Program) ProgramDiff {
	var d ProgramDiff
	oldHashes := make(map[string]uint64, len(old.Funcs))
	for i, h := range ProcHashes(old) {
		oldHashes[old.Funcs[i].Name] = h
	}
	newHashes := ProcHashes(new)
	seen := map[string]bool{}
	for i, f := range new.Funcs {
		seen[f.Name] = true
		h, ok := oldHashes[f.Name]
		switch {
		case !ok:
			d.Added = append(d.Added, f.Name)
		case h == newHashes[i]:
			d.Unchanged = append(d.Unchanged, f.Name)
		default:
			d.Changed = append(d.Changed, f.Name)
		}
	}
	for _, f := range old.Funcs {
		if !seen[f.Name] {
			d.Removed = append(d.Removed, f.Name)
		}
	}
	sort.Strings(d.Unchanged)
	sort.Strings(d.Changed)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	d.GlobalsChanged = GlobalsHash(old) != GlobalsHash(new)
	return d
}
