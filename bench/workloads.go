package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"specslice/internal/dataflow"
	"specslice/internal/lang"
	"specslice/internal/loadgen"
	"specslice/internal/server"
	"specslice/internal/workload"
)

// A workload is one fixed traffic mix over the paper's Fig. 17 Siemens
// suites. Every decision a run makes about its inputs — which program an
// op targets, which criteria it slices, which edit it applies — comes
// from the seed, so parent and change replay identical op sequences.
type workloadSpec struct {
	name string
	why  string
	// copies is the number of distinct generated programs per suite.
	copies int
	// programTheta is the Zipf skew of program popularity.
	programTheta float64
	// editFraction of ops step the program's editor to a new version
	// before slicing it; the rest re-slice the current version.
	editFraction float64
	// cacheEntries is the server's -cache-entries (0 keeps its default).
	cacheEntries int
	// routed runs the server as `specslice route -workers 2`.
	routed bool
	// warmup ops run untimed before the measured window; ops is how many
	// measured ops are generated. A run stops at its deadline, normally
	// long before the sequence ends.
	warmup, ops int
}

// Criterion mix shared by every workload: Zipf(0.8) over the version's
// criterion pool, 15% monovariant, 1–2 criteria per op.
const (
	criterionTheta = 0.8
	monoFraction   = 0.15
	twoCriteria    = 0.3
)

var workloads = []workloadSpec{
	{
		name:         "warm_read",
		why:          "all reads on 8 cached suites: parse, hash, the Alg. 1 slice, emit and JSON do the work; builds are bypassed",
		copies:       1,
		programTheta: 0.99,
		warmup:       1000,
		ops:          40000,
	},
	{
		name:         "edit_stream",
		why:          "90% interface-preserving edits, each sliced: Advance, partial summary edges, Encode and Reachable do the work",
		copies:       1,
		programTheta: 0.99,
		editFraction: 0.9,
		warmup:       100,
		ops:          12000,
	},
	{
		name:         "cold_miss",
		why:          "reads over 48 programs with an 8-entry cache: cold build, warm-up and eviction do the work; Advance is bypassed",
		copies:       6,
		programTheta: 0.5,
		cacheEntries: 8,
		warmup:       300,
		ops:          12000,
	},
	{
		name:         "routed_read",
		why:          "warm_read through a 2-worker router: admit, route, forward and the router's own parse sit on identical worker work",
		copies:       1,
		programTheta: 0.99,
		routed:       true,
		warmup:       1000,
		ops:          40000,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one request: a program version and its criteria.
type op struct {
	program  int // index into inputs.sources
	criteria []server.CriterionRequest
}

// inputs is a generated run: every program version the run sends, the
// corpus (preloaded during set-up) and the op sequence, whose first
// warmup ops are untimed.
type inputs struct {
	sources []string
	corpus  int // sources[:corpus] are the base programs
	ops     []op
	warmup  int
}

// generate builds the first n ops (warm-up included) of w's sequence for
// seed. Equal arguments give equal inputs, and a shorter n gives a prefix
// of a longer one.
func generate(w *workloadSpec, seed int64, n int) (*inputs, error) {
	progs, err := corpus(w.copies)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	progZipf := loadgen.NewZipf(len(progs), w.programTheta, rng.Int63())
	critSeed := rng.Int63()

	in := &inputs{corpus: len(progs), warmup: min(w.warmup, n)}
	fams := make([]*family, len(progs))
	for i, p := range progs {
		src := lang.Print(p)
		// Parsing the printed source numbers lines as the server does.
		canon, err := lang.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("corpus program %d: %v", i, err)
		}
		pool, err := criterionPool(canon)
		if err != nil {
			return nil, fmt.Errorf("corpus program %d: %v", i, err)
		}
		in.sources = append(in.sources, src)
		fams[i] = &family{base: canon, at: version{source: i, pool: pool}, zipf: loadgen.NewZipf(maxPool, criterionTheta, critSeed+int64(i))}
		if w.editFraction > 0 {
			fams[i].iface = interfaceOf(canon)
		}
	}
	for len(in.ops) < n {
		fam := fams[progZipf.Next()]
		if w.editFraction > 0 && rng.Float64() < w.editFraction {
			if err := fam.edit(in, rng); err != nil {
				return nil, err
			}
		}
		o := op{program: fam.at.source}
		nCrit := 1
		if rng.Float64() < twoCriteria {
			nCrit = 2
		}
		for c := 0; c < nCrit; c++ {
			crit := fam.at.pool[fam.criterion(len(fam.at.pool))]
			if rng.Float64() < monoFraction {
				crit.Mode = "mono"
			}
			o.criteria = append(o.criteria, crit)
		}
		in.ops = append(in.ops, o)
	}
	return in, nil
}

// An editing session applies sessionEdits edits to a suite's base
// program. A program's edits walk sessionsPerProgram sessions in turn and
// then repeat them, so however many ops a run gets through, versions stay
// near the paper's programs in size and generating inputs stays cheap. A
// repeated version was sent so many ops earlier that the server has
// evicted it, so it is still a miss.
const (
	sessionEdits       = 32
	sessionsPerProgram = 4
)

// version is one program version: its index in inputs.sources and the
// criteria it can be sliced by.
type version struct {
	source int
	pool   []server.CriterionRequest
}

// family is one corpus program and the versions its edits produce.
type family struct {
	base  *lang.Program
	iface string  // interfaceOf(base), which every version keeps
	at    version // the version the last op sent
	zipf  *loadgen.Zipf
	// sessions[s][k] is the (k+1)-th edit of session s; the session being
	// generated grows through editor, whose program is cur.
	sessions     [][]version
	session, pos int // the next edit is sessions[session][pos]
	editor       *workload.Editor
	cur          *lang.Program
}

// maxPool bounds a criterion pool: printf in main, every printf, 16 lines.
const maxPool = 18

// criterion draws a Zipf rank below n: the family's Zipf over maxPool
// ranks, truncated to the pool.
func (f *family) criterion(n int) int {
	for {
		if r := f.zipf.Next(); r < n {
			return r
		}
	}
}

// edit moves the family to its next version, generating it when a session
// reaches it for the first time.
func (f *family) edit(in *inputs, rng *rand.Rand) error {
	if f.pos == sessionEdits {
		f.session, f.pos = (f.session+1)%sessionsPerProgram, 0
	}
	if f.session == len(f.sessions) {
		f.sessions = append(f.sessions, nil)
		f.cur = f.base
		f.editor = workload.NewEditor(f.cur, rng.Int63())
	}
	if s := f.sessions[f.session]; f.pos == len(s) {
		desc := f.step(rng)
		pool, err := criterionPool(f.cur)
		if err != nil {
			return fmt.Errorf("after %q: %v", desc, err)
		}
		in.sources = append(in.sources, lang.Print(f.cur))
		f.sessions[f.session] = append(s, version{source: len(in.sources) - 1, pool: pool})
	}
	f.at = f.sessions[f.session][f.pos]
	f.pos++
	return nil
}

// step applies one workload.Editor step to cur, retrying from cur with a
// fresh editor seed until the step leaves every procedure's mod/ref
// summary as it was. Those are the facts Engine.Advance derives
// incrementally, and its incremental mod/ref (dataflow.AdvanceModRef) can
// keep stale facts when an edit shrinks or grows them inside a call cycle,
// serving slices that differ from a fresh build. Within this class an
// advance must equal a cold build, so the correctness gate holds the
// server to it.
func (f *family) step(rng *rand.Rand) string {
	for {
		desc := f.editor.Step()
		if interfaceOf(f.editor.Program()) == f.iface {
			f.cur = f.editor.Program()
			return desc
		}
		f.editor = workload.NewEditor(f.cur, rng.Int63())
	}
}

// interfaceOf renders every procedure's mod/ref summary as the SDG build
// consumes it: GMOD, must-mod and formal-in globals.
func interfaceOf(p *lang.Program) string {
	mr := dataflow.ComputeModRef(p)
	var b strings.Builder
	for _, name := range procNames(p) {
		fmt.Fprintf(&b, "%s %v %v %v\n", name, mr.GMODNames(name), mr.MustModNames(name), mr.FormalInGlobalNames(name))
	}
	return b.String()
}

// hash is the SHA-256 of the inputs: every source text, then every op.
func (in *inputs) hash() string {
	h := sha256.New()
	for _, s := range in.sources {
		fmt.Fprintf(h, "%d\n%s", len(s), s)
	}
	for _, o := range in.ops {
		fmt.Fprintf(h, "%d", o.program)
		for _, c := range o.criteria {
			fmt.Fprintf(h, " %s/%s/%d/%s/%s", c.Kind, c.Proc, c.Line, c.Stmt, c.Mode)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corpus returns copies programs per Fig. 17 Siemens suite
// (workload.SmallBenchmarks), copy k generated with the suite's seed plus
// 1000·k. Procedure names get a per-program suffix: FamilyKey is the sorted
// procedure names, and the generator names procedures p0, p1, … in every
// suite, so without the suffix unrelated programs with equal procedure
// counts (schedule and print_tokens, or two copies of one suite) would
// share a version chain and advance across each other.
func corpus(copies int) ([]*lang.Program, error) {
	var out []*lang.Program
	for _, cfg := range workload.SmallBenchmarks() {
		for k := 0; k < copies; k++ {
			c := cfg
			c.Seed += int64(1000 * k)
			p, err := lang.Parse(workload.GenerateSource(c))
			if err != nil {
				return nil, fmt.Errorf("suite %s copy %d: %v", cfg.Name, k, err)
			}
			suffix := "_" + cfg.Name
			if copies > 1 {
				suffix += fmt.Sprintf("_%d", k)
			}
			renameProcs(p, suffix)
			out = append(out, p)
		}
	}
	return out, nil
}

// renameProcs appends suffix to every procedure name except main.
func renameProcs(p *lang.Program, suffix string) {
	procs := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name != "main" {
			procs[f.Name] = true
			f.Name += suffix
		}
	}
	for _, f := range p.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if c, ok := s.(*lang.CallStmt); ok && !c.Indirect && procs[c.Callee] {
				c.Callee += suffix
			}
			for _, e := range lang.StmtExprs(s) {
				lang.WalkExprs(e, func(x lang.Expr) {
					switch x := x.(type) {
					case *lang.FuncRef:
						if procs[x.Name] {
							x.Name += suffix
						}
					case *lang.CallExpr:
						if !x.Indirect && procs[x.Callee] {
							x.Callee += suffix
						}
					}
				})
			}
		})
	}
}

// criterionPool is the criterion choices of a version, most popular
// first: printf in main, every printf, then up to 16 assignment lines
// evenly spaced over the procedures reachable from main by direct calls,
// so every entry resolves. p must be the parse of the version's
// normalized source, whose line numbers the server resolves against.
func criterionPool(p *lang.Program) ([]server.CriterionRequest, error) {
	callees := map[string][]string{}
	for _, f := range p.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if c, ok := s.(*lang.CallStmt); ok && !c.Indirect {
				callees[f.Name] = append(callees[f.Name], c.Callee)
			}
		})
	}
	reach := map[string]bool{"main": true}
	for work := []string{"main"}; len(work) > 0; {
		f := work[0]
		work = work[1:]
		for _, c := range callees[f] {
			if !reach[c] {
				reach[c] = true
				work = append(work, c)
			}
		}
	}
	seen := map[int]bool{}
	var lines []int
	for _, f := range p.Funcs {
		if !reach[f.Name] {
			continue
		}
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if _, ok := s.(*lang.AssignStmt); ok && !seen[s.Base().Pos.Line] {
				seen[s.Base().Pos.Line] = true
				lines = append(lines, s.Base().Pos.Line)
			}
		})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("no assignment lines reachable from main")
	}
	sort.Ints(lines)
	pool := []server.CriterionRequest{{Kind: "printf", Proc: "main"}, {Kind: "printf"}}
	step := max(1, len(lines)/(maxPool-2))
	for i := 0; i < len(lines) && len(pool) < maxPool; i += step {
		pool = append(pool, server.CriterionRequest{Kind: "line", Line: lines[i]})
	}
	return pool, nil
}
