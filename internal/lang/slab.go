package lang

import "unsafe"

// Slab hands out values from chunks, so a producer of many small nodes
// (the parser, the emitter) allocates per chunk rather than per node. The
// chunks belong to the AST built from them: a chunk lives as long as any
// value in it is reachable. A slab's chunks grow from 8 values to about
// slabChunkBytes, so the unused tail of a program's last chunk of each
// node type stays small next to the program.
type Slab[T any] []T

const slabChunkBytes = 512

// New copies v into the slab and returns its address.
func (s *Slab[T]) New(v T) *T {
	if len(*s) == cap(*s) {
		s.grow(1)
	}
	*s = append(*s, v)
	return &(*s)[len(*s)-1]
}

// Copy copies vs into the slab and returns the copy, capped at its length
// so an append to it reallocates instead of overwriting a neighbour. An
// empty vs copies to nil.
func (s *Slab[T]) Copy(vs []T) []T {
	n := len(vs)
	if n == 0 {
		return nil
	}
	if cap(*s)-len(*s) < n {
		s.grow(n)
	}
	i := len(*s)
	*s = append(*s, vs...)
	return (*s)[i : i+n : i+n]
}

// grow starts a new chunk with room for at least n values.
func (s *Slab[T]) grow(n int) {
	var zero T
	limit := max(slabChunkBytes/int(unsafe.Sizeof(zero)), 8)
	*s = make([]T, 0, max(min(2*cap(*s), limit), 8, n))
}
