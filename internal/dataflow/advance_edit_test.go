package dataflow

import "specslice/internal/lang"

// AdvanceModRef computes newProg's summaries incrementally against a
// previous version (see AdvanceEdit), deriving the edit itself: it diffs
// and walks both programs, for the differential tests (sdg.Advance
// describes its edits itself). Falls back to a full computation when
// either version has an indirect call.
func AdvanceModRef(newProg, oldProg *lang.Program, old *ModRef) *ModRef {
	if old == nil || oldProg == nil {
		return ComputeModRef(newProg)
	}
	// The caller-cutoff logic tracks dependencies through direct calls
	// only, so programs still containing indirect calls (callers invisible
	// in the reverse call graph) get the full recomputation.
	if newProg.HasIndirectCall() || oldProg.HasIndirectCall() {
		return ComputeModRef(newProg)
	}
	return AdvanceEdit(newProg, old, EditOf(oldProg, newProg)).ModRef
}

// EditOf describes the edit from oldProg to newProg for AdvanceEdit, by
// diffing the two and walking every procedure of newProg for its callees.
func EditOf(oldProg, newProg *lang.Program) *Edit {
	n := len(newProg.Funcs)
	ed := &Edit{
		OldIndex:       make([]int32, n),
		Changed:        make([]bool, n),
		CallStart:      make([]int32, n+1),
		GlobalsChanged: lang.GlobalsHash(oldProg) != lang.GlobalsHash(newProg),
	}
	oldIdx := make(map[string]int, len(oldProg.Funcs))
	for i, fn := range oldProg.Funcs {
		oldIdx[fn.Name] = i
	}
	newIdx := make(map[string]int32, n)
	for i, fn := range newProg.Funcs {
		newIdx[fn.Name] = int32(i)
	}
	oldHashes, newHashes := lang.ProcHashes(oldProg), lang.ProcHashes(newProg)
	for i, fn := range newProg.Funcs {
		oi, ok := oldIdx[fn.Name]
		ed.OldIndex[i] = int32(oi)
		if !ok {
			ed.OldIndex[i] = -1
		}
		ed.Changed[i] = !ok || oldHashes[oi] != newHashes[i]
		lang.WalkStmts(fn.Body, func(s lang.Stmt) {
			if c, ok := s.(*lang.CallStmt); ok && !c.Indirect {
				if j, ok := newIdx[c.Callee]; ok {
					ed.Callees = append(ed.Callees, j)
				}
			}
		})
		ed.CallStart[i+1] = int32(len(ed.Callees))
	}
	return ed
}
