package store

import (
	"testing"

	"specslice/internal/engine"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// FuzzSnapshotDecode throws arbitrary bytes at the engine snapshot
// decoder — the exact bytes the store hands the server after a disk read,
// which CRCs make unlikely but not impossible to be garbage (and which an
// attacker-controlled store directory makes trivially so). The decoder
// must never panic and never allocate beyond a small multiple of the
// input (its count validation bounds every allocation by the remaining
// input length). Seeds are real snapshots of the paper's figure programs
// and a generated suite, so mutation explores the format's interior, not
// just the magic check.
func FuzzSnapshotDecode(f *testing.F) {
	for _, src := range []string{workload.Fig1Source, workload.Fig16Source} {
		g, err := sdg.Build(lang.MustParse(src))
		if err != nil {
			f.Fatal(err)
		}
		data, err := engine.New(g).Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A truncated and a corrupted variant steer the mutator toward the
		// torn-tail and bit-rot shapes recovery actually produces.
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0x20
		f.Add(flipped)
	}
	g, err := sdg.Build(workload.Generate(workload.Benchmarks()[0]))
	if err != nil {
		f.Fatal(err)
	}
	if data, err := engine.New(g).Snapshot(); err == nil {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("SSNAP\x00\x00\x02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := engine.FromSnapshot(data)
		if err != nil {
			return
		}
		// A decode that passes validation must yield a usable engine: the
		// encoding, the reachable configurations and the summary fixpoint
		// must not crash either. Warm may report an error (a decoded
		// program need not have main); it must not panic.
		_ = eng.Warm()
		eng.EnsureSummaryEdges()
	})
}
