package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"specslice"
	"specslice/internal/workload"
)

// versionBase is the evolving program the chain tests edit. Edits splice
// extra statements into main; the printf criterion stays valid throughout.
const versionBase = `
int total;
int noise;

int scale(int v) {
  return v * 3;
}

void bump(int v) {
  total = total + scale(v);
}

int main() {
  int i = 0;
  scanf("%d", &i);
  bump(i);
  printf("%d\n", total);
  return 0;
}
`

// versionEdit returns variant n of versionBase: a client-specific edit of
// main that keeps the procedure set (and hence the family) intact.
func versionEdit(n int) string {
	return strings.Replace(versionBase, "int i = 0;",
		fmt.Sprintf("int i = 0;\n  noise = %d;\n  i = i + %d;", n, n%7), 1)
}

func TestVersionChainAdvance(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}}

	// Base version: cold build.
	status, resp, raw := postSlice(t, ts.URL, SliceRequest{Program: versionBase, Criteria: crit})
	if status != http.StatusOK {
		t.Fatalf("base: status %d: %s", status, raw)
	}
	if resp.CacheHit || resp.Advanced {
		t.Errorf("base: hit=%v advanced=%v, want cold", resp.CacheHit, resp.Advanced)
	}

	// Edited version, same family: advanced, not cold.
	status, resp, raw = postSlice(t, ts.URL, SliceRequest{Program: versionEdit(1), Criteria: crit})
	if status != http.StatusOK {
		t.Fatalf("edit: status %d: %s", status, raw)
	}
	if resp.CacheHit || !resp.Advanced {
		t.Errorf("edit: hit=%v advanced=%v, want an advance", resp.CacheHit, resp.Advanced)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("edit: slice failed: %s", resp.Results[0].Error)
	}

	// Same edited version again: plain hit.
	status, resp, _ = postSlice(t, ts.URL, SliceRequest{Program: versionEdit(1), Criteria: crit})
	if status != http.StatusOK || !resp.CacheHit || resp.Advanced {
		t.Errorf("re-post: status=%d hit=%v advanced=%v, want a hit", status, resp.CacheHit, resp.Advanced)
	}

	// Procedure added: new family, cold build.
	withProc := strings.Replace(versionBase, "int main", "int fresh(int z) {\n  return z + 1;\n}\n\nint main", 1)
	status, resp, raw = postSlice(t, ts.URL, SliceRequest{Program: withProc, Criteria: crit})
	if status != http.StatusOK {
		t.Fatalf("new family: status %d: %s", status, raw)
	}
	if resp.Advanced {
		t.Error("procedure addition must start a new chain, not advance")
	}

	st := s.Cache().Stats()
	if st.Advances != 1 || st.ColdBuilds != 2 {
		t.Errorf("advances=%d cold=%d, want 1/2 (%+v)", st.Advances, st.ColdBuilds, st)
	}
	if st.Builds != st.Advances+st.ColdBuilds {
		t.Errorf("builds %d != advances %d + cold %d", st.Builds, st.Advances, st.ColdBuilds)
	}
}

func TestVersionChainAdvanceMatchesCold(t *testing.T) {
	// The slice served off an advanced engine must be byte-identical to
	// the one a fresh server cold-builds for the same version.
	_, chained := newTestServer(t, Config{})
	_, fresh := newTestServer(t, Config{})
	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}, {Kind: "printf", Proc: "main", Mode: "mono"}}

	if status, _, raw := postSlice(t, chained.URL, SliceRequest{Program: versionBase, Criteria: crit}); status != http.StatusOK {
		t.Fatalf("base: %d %s", status, raw)
	}
	_, advResp, _ := postSlice(t, chained.URL, SliceRequest{Program: versionEdit(3), Criteria: crit})
	_, coldResp, _ := postSlice(t, fresh.URL, SliceRequest{Program: versionEdit(3), Criteria: crit})
	if !advResp.Advanced {
		t.Fatal("second post did not advance")
	}
	if advResp.ProgramKey != coldResp.ProgramKey {
		t.Fatalf("program keys differ: %s vs %s", advResp.ProgramKey, coldResp.ProgramKey)
	}
	for i := range coldResp.Results {
		if advResp.Results[i].Source != coldResp.Results[i].Source {
			t.Errorf("result %d differs between advanced and cold engines:\n--- advanced\n%s\n--- cold\n%s",
				i, advResp.Results[i].Source, coldResp.Results[i].Source)
		}
	}
}

// TestVersionChainConcurrent is the version-chain acceptance gate: 32
// concurrent clients editing the same base program, several rounds each.
// Zero failures, and the cache counters must distinguish hits, advances,
// and cold builds while staying balanced. Run under -race in CI.
func TestVersionChainConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}}

	// Seed the chain so every client has an ancestor available.
	if status, _, raw := postSlice(t, ts.URL, SliceRequest{Program: versionBase, Criteria: crit}); status != http.StatusOK {
		t.Fatalf("seed: %d %s", status, raw)
	}

	const clients = 32
	const rounds = 3
	var wg sync.WaitGroup
	var mu sync.Mutex
	lookups, advancedSeen := 0, 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each client posts its own variant every round: round 0
				// is a miss (advance), later rounds hit the cached entry.
				status, resp, raw := postSlice(t, ts.URL, SliceRequest{Program: versionEdit(c + 1), Criteria: crit})
				if status != http.StatusOK {
					t.Errorf("client %d round %d: status %d: %s", c, r, status, raw)
					return
				}
				for _, res := range resp.Results {
					if res.Error != "" {
						t.Errorf("client %d round %d: slice error: %s", c, r, res.Error)
					}
				}
				mu.Lock()
				lookups++
				if resp.Advanced {
					advancedSeen++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	st := s.Cache().Stats()
	if st.Hits+st.Misses != int64(lookups)+1 { // +1 for the seed post
		t.Errorf("lookups: hits %d + misses %d != %d", st.Hits, st.Misses, lookups+1)
	}
	if st.Builds+st.Deduped+st.BuildErrors != st.Misses {
		t.Errorf("miss accounting broken: %+v", st)
	}
	if st.Advances+st.ColdBuilds != st.Builds {
		t.Errorf("build accounting broken: advances %d + cold %d != builds %d", st.Advances, st.ColdBuilds, st.Builds)
	}
	if st.BuildErrors != 0 {
		t.Errorf("build errors under version-chain load: %+v", st)
	}
	if st.Advances == 0 || advancedSeen == 0 {
		t.Errorf("no advances recorded (stats %+v, responses %d) — chains are not engaging", st, advancedSeen)
	}
	if st.ColdBuilds != 1 {
		t.Errorf("cold builds = %d, want 1 (only the seed; every client variant has an ancestor)", st.ColdBuilds)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight builds = %d after drain", st.InFlight)
	}
	t.Logf("version-chain load: %d lookups, %d hits, %d advances, %d cold builds",
		lookups+1, st.Hits, st.Advances, st.ColdBuilds)
}

func TestVersionChainEvictedAncestorFallsBackCold(t *testing.T) {
	cache := NewEngineCache(1, -1) // one entry: building v2 evicts v1
	build := func(src string) func(*specslice.Engine) (*specslice.Engine, BuildSource, error) {
		return func(anc *specslice.Engine) (*specslice.Engine, BuildSource, error) {
			prog := specslice.MustParse(src)
			if anc != nil {
				p, err := prog.EliminateIndirectCalls()
				if err != nil {
					return nil, BuildCold, err
				}
				if neng, _, err := anc.Advance(p); err == nil {
					return neng, BuildAdvance, nil
				}
			}
			eng, err := prog.Engine()
			return eng, BuildCold, err
		}
	}
	fam := FamilyKey(specslice.MustParse(versionBase).ProcNames())
	v1, v2, v3 := versionBase, versionEdit(1), versionEdit(2)

	if _, _, _, src, err := cache.Get(ContentKey(v1), fam, build(v1)); err != nil || src != BuildCold {
		t.Fatalf("v1: source=%v err=%v", src, err)
	}
	if _, _, _, src, err := cache.Get(ContentKey(v2), fam, build(v2)); err != nil || src != BuildAdvance {
		t.Fatalf("v2: source=%v err=%v, want advance", src, err)
	}
	// v1 was evicted by v2's insert, but the family head now points at v2,
	// so v3 still advances.
	if _, _, _, src, err := cache.Get(ContentKey(v3), fam, build(v3)); err != nil || src != BuildAdvance {
		t.Fatalf("v3: source=%v err=%v, want advance from v2", src, err)
	}
	// Evict v3 with an unrelated family: the chain head is gone, so the
	// next member of the old family cold-builds.
	other := workload.Fig1Source
	if _, _, _, _, err := cache.Get(ContentKey(other), FamilyKey(specslice.MustParse(other).ProcNames()), build(other)); err != nil {
		t.Fatal(err)
	}
	v4 := versionEdit(3)
	if _, _, _, src, err := cache.Get(ContentKey(v4), fam, build(v4)); err != nil || src != BuildCold {
		t.Fatalf("v4 after eviction: source=%v err=%v, want cold", src, err)
	}
	st := cache.Stats()
	if st.Advances != 2 || st.ColdBuilds != 3 {
		t.Errorf("advances=%d cold=%d, want 2/3 (%+v)", st.Advances, st.ColdBuilds, st)
	}
}
