package dataflow_test

import (
	"fmt"
	"strings"
	"testing"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
	"specslice/internal/workload"
)

// summaries renders every procedure's four relations, in program order.
func summaries(mr *dataflow.ModRef, p *lang.Program) string {
	var b strings.Builder
	for _, fn := range p.Funcs {
		n := fn.Name
		fmt.Fprintf(&b, "%s GMOD=%v GREF=%v MustMod=%v UEREF=%v\n",
			n, mr.GMOD(n).Sorted(), mr.GREF(n).Sorted(), mr.MustMod(n).Sorted(), mr.UEREF(n).Sorted())
	}
	return b.String()
}

// TestAdvanceModRefChainedDifferential chains AdvanceModRef through
// unrestricted workload.Editor streams — statement inserts and deletes,
// added and removed calls and procedures, which create and break call
// cycles — exactly as an engine's version chain does: each version is
// advanced from the previous version's *advanced* summaries, never from a
// fresh computation, so a stale fact survives until it is caught. Every
// version must equal ComputeModRef of the same program.
func TestAdvanceModRefChainedDifferential(t *testing.T) {
	seeds, steps := int64(4), 60
	if testing.Short() {
		seeds, steps = 1, 30
	}
	divergences, total := 0, 0
	for _, cfg := range workload.SmallBenchmarks() {
		base := lang.MustParse(workload.GenerateSource(cfg))
		for seed := int64(1); seed <= seeds; seed++ {
			ed := workload.NewEditor(base, seed)
			prev := ed.Program()
			prevMR := dataflow.ComputeModRef(prev)
			for step := 0; step < steps; step++ {
				desc := ed.Step()
				next := ed.Program()
				adv := dataflow.AdvanceModRef(next, prev, prevMR)
				got, want := summaries(adv, next), summaries(dataflow.ComputeModRef(next), next)
				total++
				if got != want {
					divergences++
					if divergences <= 3 {
						t.Errorf("%s editor seed %d step %d (%s): advanced summaries diverge:\n got:\n%s want:\n%s",
							cfg.Name, seed, step, desc, got, want)
					}
				}
				prev, prevMR = next, adv
			}
		}
	}
	if divergences > 0 {
		t.Errorf("%d of %d chained advances diverged from a full computation", divergences, total)
	}
}

// TestAdvanceModRefCycleShrink is the serving benchmark's reproduction as
// a named case: on tot_info, a call p5 → p1 closes the cycle
// p1 → p4 → p5 → p1 (p3 joins it through p1 → p3 → p5), and p4 holds the
// only write of gv4. Deleting `gv4 = gv4 + 8;` must drop gv4 from GMOD of
// every cycle member and caller. Before the dirty set was closed under
// call-graph SCCs, only p4 was re-solved, against p5's stale row that
// still carried gv4 around the cycle, so its row came out unchanged, the
// caller cutoff fired, and p1…p5 kept gv4.
func TestAdvanceModRefCycleShrink(t *testing.T) {
	var src string
	for _, cfg := range workload.SmallBenchmarks() {
		if cfg.Name == "tot_info" {
			src = lang.Print(lang.MustParse(workload.GenerateSource(cfg)))
		}
	}
	const (
		p4Head = "int p4(int a0, int a1, int a2) {"
		p5Head = "int p5(int a0, int a1, int a2) {"
		write  = "\n  gv4 = gv4 + 8;"
	)
	if !strings.Contains(src, p4Head) || !strings.Contains(src, p5Head) {
		t.Fatalf("tot_info no longer has the expected p4/p5 signatures:\n%s", src)
	}
	withWrite := strings.Replace(src, p5Head, p5Head+"\n  p1(1, 2, 3);", 1)
	withWrite = strings.Replace(withWrite, p4Head, p4Head+write, 1)
	without := strings.Replace(withWrite, write, "", 1)

	old := lang.MustParse(withWrite)
	oldMR := dataflow.ComputeModRef(old)
	for _, name := range []string{"p1", "p3", "p4", "p5"} {
		if !oldMR.GMOD(name)["gv4"] {
			t.Fatalf("setup: GMOD(%s) lacks gv4 before the delete: %v", name, oldMR.GMOD(name).Sorted())
		}
	}
	next := lang.MustParse(without)
	adv := dataflow.AdvanceModRef(next, old, oldMR)
	for _, name := range []string{"p1", "p2", "p3", "p4", "p5"} {
		if adv.GMOD(name)["gv4"] {
			t.Errorf("GMOD(%s) still holds gv4 after its only write was deleted: %v", name, adv.GMOD(name).Sorted())
		}
	}
	if got, want := summaries(adv, next), summaries(dataflow.ComputeModRef(next), next); got != want {
		t.Errorf("advanced summaries diverge from a full computation:\n got:\n%s want:\n%s", got, want)
	}
}
