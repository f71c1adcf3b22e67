package experiments

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// engineBenchRequiredKeys is the BENCH_engine.json schema contract: CI
// regenerates the file on every push and fails if any of these keys
// disappears, so perf trajectories stay machine-comparable across PRs.
// Adding keys is fine; removing or renaming one must update this list,
// the CI check, and README's schema documentation together.
var engineBenchRequiredKeys = []string{
	"gomaxprocs",
	"iterations",
	"cold_ns_per_op",
	"warm_ns_per_op",
	"warm_speedup",
	"warm_allocs_per_op",
	"warm_bytes_per_op",
	"batch_suite",
	"batch_size",
	"batch_sequential_ns",
	"batch_parallel_ns",
	"batch_speedup",
	"batch_workers_requested",
	"batch_workers",
	"advance_suite",
	"advance_edits",
	"incremental_ns_per_op",
	"advance_cold_ns_per_op",
	"advance_speedup",
	"readout_ns_per_op",
	"readout_allocs_per_op",
	"batch_ns_by_workers",
	"cold_build_ns_by_workers",
	"cold_build_parallel_speedup",
	"cold_build_phase_ns",
	"snapshot_encode_ns",
	"warm_from_disk_ns_per_op",
	"restart_recovery_ns",
	"workloads",
}

func TestEngineBenchSchemaKeys(t *testing.T) {
	// A zero-value EngineBench must already serialize every required key:
	// none of them may be omitempty, or a failed sub-measurement would
	// silently drop fields CI depends on.
	data, err := json.Marshal(&EngineBench{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range engineBenchRequiredKeys {
		if _, ok := m[k]; !ok {
			t.Errorf("BENCH_engine.json schema regressed: key %q missing", k)
		}
	}
}

// TestRunWorkloadsSmoke runs the BENCH workloads block end to end at a
// short duration: one report per registered scenario, zero request errors
// (every scheduled criterion must resolve), and live monotone quantiles.
func TestRunWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke is not -short")
	}
	eb := &EngineBench{}
	if err := eb.RunWorkloads(time.Second, 1); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"read_heavy": true, "write_heavy": true, "balanced": true,
		"read_heavy_routed_1":                             true,
		fmt.Sprintf("read_heavy_routed_%d", RoutedShards): true,
	}
	if len(eb.Workloads) != len(want) {
		t.Fatalf("%d workload reports, want %d", len(eb.Workloads), len(want))
	}
	for _, w := range eb.Workloads {
		if !want[w.Name] {
			t.Errorf("unexpected workload %q", w.Name)
		}
		delete(want, w.Name)
		// Routed rows must carry the shard evidence: one forward counter
		// per shard, summing to at least the completed ops. At this smoke
		// duration the Zipf tail may never schedule a cold family, so a
		// multi-shard run only has to spread past a single shard — the
		// all-shards-busy balance check lives in loadgen's 2s acceptance
		// test (TestRunRoutedReadHeavy).
		if w.Shards > 0 {
			if len(w.ShardRouted) != w.Shards {
				t.Errorf("%s: shard_routed has %d entries, want %d", w.Name, len(w.ShardRouted), w.Shards)
			}
			var busy int
			var forwards int64
			for _, n := range w.ShardRouted {
				if n > 0 {
					busy++
				}
				forwards += n
			}
			// Ops counts completed requests including 429s, which never
			// reach a shard — only the non-shed remainder must forward.
			if forwards < w.Ops-w.ServerShed {
				t.Errorf("%s: forwards %d < completed ops %d - sheds %d",
					w.Name, forwards, w.Ops, w.ServerShed)
			}
			if w.Shards > 1 && busy < 2 {
				t.Errorf("%s: only %d of %d shards received forwards", w.Name, busy, w.Shards)
			}
		}
		if w.Errors != 0 {
			t.Errorf("%s: %d request errors, want 0", w.Name, w.Errors)
		}
		if w.Ops == 0 || w.AchievedOpsPerSec <= 0 {
			t.Errorf("%s: no completed ops: %+v", w.Name, w)
		}
		if w.P50NS <= 0 || w.P50NS > w.P99NS || w.P99NS > w.P999NS {
			t.Errorf("%s: quantiles not positive and monotone: p50=%d p99=%d p999=%d",
				w.Name, w.P50NS, w.P99NS, w.P999NS)
		}
		if w.Cache.Hits+w.Cache.Misses != w.Ops-w.ServerShed {
			t.Errorf("%s: cache delta hits %d + misses %d != ops %d - sheds %d",
				w.Name, w.Cache.Hits, w.Cache.Misses, w.Ops, w.ServerShed)
		}
	}
}

// TestRunEngineBenchSmoke runs one tiny iteration end to end, checking the
// incremental measurement produces sane values (a real speedup ratio, not
// NaN/zero placeholders).
func TestRunEngineBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is not -short")
	}
	eb, err := RunEngineBench(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eb.AdvanceSuite != "gzip" || eb.AdvanceEdits < 1 {
		t.Errorf("advance suite/edits = %q/%d", eb.AdvanceSuite, eb.AdvanceEdits)
	}
	if eb.IncrementalNsPerOp <= 0 || eb.AdvanceColdNsPerOp <= 0 {
		t.Errorf("incremental %v / cold %v ns per op not measured", eb.IncrementalNsPerOp, eb.AdvanceColdNsPerOp)
	}
	if eb.AdvanceSpeedup <= 0 {
		t.Errorf("advance speedup = %v, want > 0", eb.AdvanceSpeedup)
	}
	if eb.ReadoutNsPerOp <= 0 {
		t.Errorf("readout ns per op = %v, want > 0", eb.ReadoutNsPerOp)
	}
	// Under the race detector sync.Pool drops a random share of Puts, so the
	// pooled readout scratch is reallocated and the count measures the
	// detector, not the readout. Plain `go test` and the bench job's gate
	// enforce the bound.
	if !raceEnabled && eb.ReadoutAllocsPerOp > 8 {
		t.Errorf("readout allocs per op = %v, want <= 8 (the readout regressed)", eb.ReadoutAllocsPerOp)
	}
	for _, w := range []string{"1", "2", "4"} {
		if eb.BatchNsByWorkers[w].Ns <= 0 || eb.ColdBuildNsByWorkers[w].Ns <= 0 {
			t.Errorf("worker sweep row %q missing: batch=%v cold=%v", w, eb.BatchNsByWorkers[w], eb.ColdBuildNsByWorkers[w])
		}
		if eb.BatchNsByWorkers[w].GoMaxProcs <= 0 || eb.ColdBuildNsByWorkers[w].GoMaxProcs <= 0 {
			t.Errorf("worker sweep row %q lacks its effective gomaxprocs: batch=%v cold=%v", w, eb.BatchNsByWorkers[w], eb.ColdBuildNsByWorkers[w])
		}
	}
	// Honest parallel reporting: the speedup exists iff the 4-worker row
	// really had >= 4 processors; otherwise it must be null, never a
	// number measured on fewer cores.
	if eb.ColdBuildNsByWorkers["4"].GoMaxProcs >= 4 {
		if eb.ColdBuildParallelSpeedup == nil || *eb.ColdBuildParallelSpeedup <= 0 {
			t.Errorf("cold build parallel speedup = %v, want > 0 at gomaxprocs >= 4", eb.ColdBuildParallelSpeedup)
		}
	} else if eb.ColdBuildParallelSpeedup != nil {
		t.Errorf("cold build parallel speedup = %v at gomaxprocs < 4, want null", *eb.ColdBuildParallelSpeedup)
	}
	if eb.WorkersRequested <= 0 {
		t.Errorf("batch_workers_requested = %d, want the resolved pool size, not the raw flag", eb.WorkersRequested)
	}
	if eb.ColdBuildPhases == nil || eb.ColdBuildPhases.ModRef <= 0 {
		t.Errorf("cold build phases not measured: %+v", eb.ColdBuildPhases)
	}
	if eb.ColdBuildPhases != nil && (eb.ColdBuildPhases.ModRefLocal <= 0 || eb.ColdBuildPhases.ModRefFixpoint <= 0) {
		t.Errorf("mod/ref sub-phases not measured: %+v", eb.ColdBuildPhases)
	}
	// Measured only: with one iteration the disk-warm load and the cold
	// build are single samples within a few percent of each other, so
	// their ordering is gated on the 50-iteration JSON run in CI instead.
	if eb.SnapshotEncodeNs <= 0 || eb.WarmFromDiskNsPerOp <= 0 || eb.RestartRecoveryNs <= 0 {
		t.Errorf("persistence metrics not measured: encode=%d disk=%v recovery=%d",
			eb.SnapshotEncodeNs, eb.WarmFromDiskNsPerOp, eb.RestartRecoveryNs)
	}
}
