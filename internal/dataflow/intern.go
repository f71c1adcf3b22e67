package dataflow

import (
	"math/bits"
	"sort"

	"specslice/internal/lang"
)

// Interner assigns dense integer IDs to the program's global variables so
// the mod/ref relations can live in bitset rows instead of string-keyed
// maps. IDs are assigned in ascending name order, which makes decoding a
// row's set bits yield names already sorted — the order every downstream
// consumer (formal vertex creation, interface hashing, set printing)
// needs, without a sort per access.
//
// An Interner is immutable after construction and safe for concurrent
// readers; one instance is built per Build/Advance and shared between the
// solver and the SDG builder through the ModRef it produces.
type Interner struct {
	names []string
	ids   map[string]int
}

// InternGlobals builds the interner over prog's non-function-pointer
// globals — the only variables the mod/ref relations can contain.
func InternGlobals(prog *lang.Program) *Interner {
	names := make([]string, 0, len(prog.Globals))
	for _, g := range prog.Globals {
		if !g.IsFnPtr {
			names = append(names, g.Name)
		}
	}
	sort.Strings(names)
	in := &Interner{names: names, ids: make(map[string]int, len(names))}
	for i, n := range names {
		in.ids[n] = i
	}
	return in
}

// ID returns the dense ID of name, if it is an interned global.
func (in *Interner) ID(name string) (int, bool) {
	id, ok := in.ids[name]
	return id, ok
}

// Len returns the number of interned variables.
func (in *Interner) Len() int { return len(in.names) }

// Words returns the row width, in 64-bit words, of a bitset over the
// interned variables.
func (in *Interner) Words() int { return (len(in.names) + 63) / 64 }

// rowEqual reports word-wise equality of two rows.
func rowEqual(a, b []uint64) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// orInto ORs src into dst and reports whether dst changed.
func orInto(dst, src []uint64) bool {
	changed := false
	for w := range dst {
		if n := dst[w] | src[w]; n != dst[w] {
			dst[w] = n
			changed = true
		}
	}
	return changed
}

// andInto ANDs src into dst.
func andInto(dst, src []uint64) {
	for w := range dst {
		dst[w] &= src[w]
	}
}

// rowIsEmpty reports whether no bit is set.
func rowIsEmpty(r []uint64) bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// popcount returns the number of set bits in the row.
func popcount(r []uint64) int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// eachBit calls f for every set bit, in ascending ID order.
func eachBit(r []uint64, f func(id int)) {
	for wi, w := range r {
		for w != 0 {
			f(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// decodeNames expands a row into variable names, in sorted order (IDs are
// assigned in name order). Returns nil for an empty row.
func (in *Interner) decodeNames(r []uint64) []string {
	n := popcount(r)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	eachBit(r, func(id int) { out = append(out, in.names[id]) })
	return out
}

// decodeSet expands a row into a StringSet view.
func (in *Interner) decodeSet(r []uint64) StringSet {
	out := make(StringSet, popcount(r))
	eachBit(r, func(id int) { out[in.names[id]] = true })
	return out
}
