package server

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"specslice"
)

// keyMemoCapacity bounds the key memo's entry count. A full memo is reset:
// a working set wider than this pays one parse per text again, never
// unbounded memory. An entry is a 32-byte digest plus two 64-character hex
// keys, so a full memo holds well under 1 MiB.
const keyMemoCapacity = 4096

// ProgramKeys are the two cache keys of one program: its ContentKey (the
// hash of the lang-normalized source) and its FamilyKey (the hash of its
// sorted procedure names).
type ProgramKeys struct {
	Content string
	Family  string
}

// KeyMemo maps the SHA-256 of a request's raw program text to the keys its
// parse produced, so a text seen before byte for byte skips parsing,
// normalizing, printing and hashing the normalized source, and goes
// straight to the engine-cache lookup. It holds keys only, never source
// text. Normalization-equivalent texts keep sharing one engine: their raw
// digests differ, but each maps to the same ContentKey. The zero value is
// ready to use and safe for concurrent use.
type KeyMemo struct {
	mu   sync.Mutex
	m    map[[sha256.Size]byte]ProgramKeys
	hits atomic.Int64
}

// Keys returns the cache keys of the program text raw. A text whose keys
// are memoized is answered without parsing, and prog is then nil.
// Otherwise raw is parsed, and prog is the program numbered as its
// normalized source (specslice.ParseNormalized), ready to build; the keys
// are recorded only when the parse succeeds, so an unparseable text
// returns its parse error on every call.
func (km *KeyMemo) Keys(raw string) (keys ProgramKeys, prog *specslice.Program, err error) {
	// Hash the text in place: sha256 only reads its input.
	digest := sha256.Sum256(unsafe.Slice(unsafe.StringData(raw), len(raw)))
	km.mu.Lock()
	keys, ok := km.m[digest]
	km.mu.Unlock()
	if ok {
		km.hits.Add(1)
		return keys, nil, nil
	}
	prog, norm, err := specslice.ParseNormalized(raw)
	if err != nil {
		return ProgramKeys{}, nil, err
	}
	keys = ProgramKeys{Content: ContentKey(norm), Family: FamilyKey(prog.ProcNames())}
	km.mu.Lock()
	if km.m == nil || len(km.m) >= keyMemoCapacity {
		km.m = make(map[[sha256.Size]byte]ProgramKeys)
	}
	km.m[digest] = keys
	km.mu.Unlock()
	return keys, prog, nil
}

// Hits counts the calls Keys answered from the memo.
func (km *KeyMemo) Hits() int64 { return km.hits.Load() }
