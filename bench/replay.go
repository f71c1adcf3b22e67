package main

import (
	"bytes"
	"cmp"
	"container/list"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/engine"
	"specslice/internal/feature"
	"specslice/internal/funcptr"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/server"
)

// The traced replay re-serves a workload's ops in this process, in one
// goroutine, making the same sequence of calls the server's POST /v1/slice
// handler makes (through the packages behind the public specslice API, so
// each layer can be timed on its own), with a span around every call.
// The engine warm-up a build triggers is split into its steps through
// internal/engine's exported methods; cold-build sub-phases come from
// sdg.BuildStats and the Alg. 1 phases from each core.Result's Timings.
// No timer or hook is added to the program itself.

// span is one timed layer call. Parent indexes the enclosing span (-1 for
// an op's root); times are nanoseconds since the replay started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan names each op's enclosing span; its self time is the part of
// the op no layer span covers.
const rootSpan = "request"

// tracer records spans in memory. A disabled tracer records nothing and
// reads no clock.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// timed records, inside the innermost open span, a child the program
// timed itself: d long, starting at start.
func (t *tracer) timed(name string, start time.Time, d time.Duration) {
	if !t.on {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.open[len(t.open)-1], Start: s, End: s + int64(d)})
}

// selfTimes sums each span name's self time: its duration minus the
// durations of its children.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// engineLRU mirrors server.EngineCache for internal engines: an LRU
// bounded by entries and footprint bytes whose families remember their
// most recent member as the ancestor a miss advances.
type engineLRU struct {
	maxEntries int
	maxBytes   int64
	lru        *list.List // front = most recent; values are *lruEntry
	entries    map[string]*list.Element
	families   map[string]string
	bytes      int64
}

type lruEntry struct {
	key, family string
	eng         *engine.Engine
	bytes       int64
}

// The server's defaults (specslice serve -cache-entries 64 -cache-mb 512).
const (
	defaultCacheEntries = 64
	defaultCacheBytes   = 512 << 20
)

func newEngineLRU(maxEntries int) *engineLRU {
	if maxEntries == 0 {
		maxEntries = defaultCacheEntries
	}
	return &engineLRU{maxEntries: maxEntries, maxBytes: defaultCacheBytes, lru: list.New(), entries: map[string]*list.Element{}, families: map[string]string{}}
}

func (c *engineLRU) get(key, family string, build func(ancestor *engine.Engine) (*engine.Engine, int64, error)) (*engine.Engine, bool, error) {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*lruEntry).eng, true, nil
	}
	var ancestor *engine.Engine
	if el, ok := c.entries[c.families[family]]; ok {
		ancestor = el.Value.(*lruEntry).eng
	}
	eng, n, err := build(ancestor)
	if err != nil {
		return nil, false, err
	}
	c.entries[key] = c.lru.PushFront(&lruEntry{key: key, family: family, eng: eng, bytes: n})
	c.families[family] = key
	c.bytes += n
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 1 {
		e := c.lru.Remove(c.lru.Back()).(*lruEntry)
		delete(c.entries, e.key)
		if c.families[e.family] == e.key {
			delete(c.families, e.family)
		}
		c.bytes -= e.bytes
	}
	return eng, false, nil
}

// replayer serves ops in process.
type replayer struct {
	tr    tracer
	cache *engineLRU
	// Counts over the traced ops.
	procsReused, procsRebuilt int
	polyResults, detStates    int
}

// serve handles one POST /v1/slice body. With slice false it stops once
// the engine is in the cache: warm-up ops only need to leave the cache in
// the state the server's was in.
func (r *replayer) serve(body []byte, slice bool) (*server.SliceResponse, error) {
	tr := &r.tr
	tr.begin(rootSpan)
	defer tr.end()

	tr.begin("server.decode")
	var req server.SliceRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("lang.parse")
	prog, err := lang.Parse(req.Program)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("lang.normalize")
	norm := lang.Print(prog)
	tr.end()
	tr.begin("server.key")
	key := server.ContentKey(norm)
	family := server.FamilyKey(procNames(prog))
	tr.end()

	tr.begin("server.cache")
	eng, hit, err := r.cache.get(key, family, func(anc *engine.Engine) (*engine.Engine, int64, error) {
		return r.build(norm, anc)
	})
	tr.end()
	if err != nil || !slice {
		return nil, err
	}

	tr.begin("engine.slice")
	g := eng.Graph()
	reqs := make([]engine.Request, len(req.Criteria))
	for i, c := range req.Criteria {
		reqs[i] = resolve(g, c)
	}
	at := time.Now()
	resps, stats := eng.SliceAll(reqs, engine.BatchOptions{Workers: 1})
	for _, rs := range resps {
		switch {
		case rs.Poly != nil:
			tm := rs.Poly.Timings
			tr.timed("pds.prestar", at, tm.Prestar)
			tr.timed("fsa.determinize", at.Add(tm.Prestar), tm.AutomatonDeterminize)
			tr.timed("fsa.minimize", at.Add(tm.Prestar+tm.AutomatonDeterminize), tm.AutomatonMinimize)
			tr.timed("core.readout", at.Add(tm.Prestar+tm.AutomatonOps), tm.Readout)
			r.polyResults++
			r.detStates += rs.Poly.StatesAfterDeterminize
		case rs.Mono != nil:
			tr.timed("mono.slice", at, rs.Duration)
		}
		at = at.Add(rs.Duration)
	}
	tr.end()

	tr.begin("emit.source")
	resp := &server.SliceResponse{ProgramKey: key, CacheHit: hit}
	for i, rs := range resps {
		out := server.SliceResult{Label: rs.Label, Mode: cmp.Or(req.Criteria[i].Mode, "poly"), DurationNS: int64(rs.Duration)}
		var variants []core.ProcVariant
		switch {
		case rs.Err != nil:
			out.Error = rs.Err.Error()
		case rs.Poly != nil:
			variants = rs.Poly.Variants()
			out.VariantCounts = rs.Poly.VariantCounts()
		default:
			variants = rs.Mono.Variants()
			out.VariantCounts = map[string]int{}
			for _, v := range variants {
				out.VariantCounts[v.Orig.Name]++
			}
		}
		if rs.Err == nil {
			for _, v := range variants {
				out.Vertices += len(v.Vertices)
			}
			if out.Source, err = emit.Source(g, variants); err != nil {
				out.Error = err.Error()
			}
		}
		if rs.Poly != nil {
			rs.Poly.Release()
		}
		resp.Results = append(resp.Results, out)
	}
	tr.end()

	tr.begin("server.encode")
	resp.Stats.Requests = stats.Requests
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	tr.end()
	return resp, err
}

// build mirrors the server's miss path without a persistent store:
// re-parse the normalized text, eliminate indirect calls, advance the
// ancestor or cold-build, then warm the engine the way the cache's
// Footprint call does, one step at a time.
func (r *replayer) build(norm string, anc *engine.Engine) (*engine.Engine, int64, error) {
	tr := &r.tr
	tr.begin("lang.parse")
	canon, err := lang.Parse(norm)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("funcptr.eliminate")
	p, _, err := funcptr.Transform(canon)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	var eng *engine.Engine
	if anc != nil {
		tr.begin("sdg.advance")
		neng, delta, err := anc.Advance(p)
		tr.end()
		if err == nil {
			eng = neng
			if tr.on {
				r.procsReused += delta.ProcsReused
				r.procsRebuilt += delta.ProcsRebuilt
			}
		}
	}
	if eng == nil {
		tr.begin("sdg.build")
		t0 := time.Now()
		g, err := sdg.Build(p)
		if err == nil {
			bs := g.BuildStats()
			tr.timed("dataflow.modref", t0, bs.ModRef)
			tr.timed("sdg.pdg", t0.Add(bs.ModRef), bs.PDG)
			tr.timed("sdg.connect", t0.Add(bs.ModRef+bs.PDG), bs.Connect)
			eng = engine.New(g)
		}
		tr.end()
		if err != nil {
			return nil, 0, err
		}
	}
	tr.begin("slice.summary")
	eng.EnsureSummaryEdges()
	tr.end()
	tr.begin("core.encode")
	enc := eng.Encoding()
	tr.end()
	tr.begin("core.reachable")
	_, _ = enc.Reachable() // a failure here is the slice's to report, as in the server
	tr.end()
	tr.begin("engine.footprint")
	n := eng.Footprint()
	tr.end()
	return eng, n, nil
}

func procNames(p *lang.Program) []string {
	out := make([]string, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// resolve maps a criterion onto an engine request the way the public
// specslice API does.
func resolve(g *sdg.Graph, c server.CriterionRequest) engine.Request {
	req := engine.Request{Label: canonicalLabel(c)}
	var vs []sdg.VertexID
	switch c.Kind {
	case "printf":
		vs = core.PrintfCriterion(g, c.Proc)
	case "line":
		vs = lineCriterion(g, c.Line)
	default:
		vs = feature.ForwardCriterion(g, c.Proc, c.Stmt)
	}
	if len(vs) == 0 {
		req.Err = fmt.Errorf("criterion %s matches nothing", req.Label)
		return req
	}
	switch c.Mode {
	case "mono":
		req.Mode, req.Vertices = engine.ModeMono, vs
	case "weiser":
		req.Mode, req.Vertices = engine.ModeWeiser, vs
	case "feature":
		req.Mode, req.Vertices = engine.ModeFeature, vs
	default:
		req.Mode, req.Spec = engine.ModePoly, polySpec(g, vs)
	}
	return req
}

// polySpec slices criteria wholly in main from the empty stack and any
// other criterion in all its reachable contexts.
func polySpec(g *sdg.Graph, vs []sdg.VertexID) core.CriterionSpec {
	for _, v := range vs {
		if g.Procs[g.Vertices[v].Proc].Name != "main" {
			return core.Vertices(vs)
		}
	}
	cfgs := make(core.Configs, len(vs))
	for i, v := range vs {
		cfgs[i] = core.Config{Vertex: v}
	}
	return cfgs
}

// lineCriterion selects the statements on a source line; a call stands
// for its actual-in and actual-out vertices.
func lineCriterion(g *sdg.Graph, line int) []sdg.VertexID {
	var vs []sdg.VertexID
	for _, v := range g.Vertices {
		if v.Stmt == nil || v.Stmt.Base().Pos.Line != line {
			continue
		}
		switch v.Kind {
		case sdg.KindStmt, sdg.KindPredicate:
			vs = append(vs, v.ID)
		case sdg.KindCall:
			site := g.Sites[v.Site]
			vs = append(vs, site.ActualIns...)
			vs = append(vs, site.ActualOuts...)
			if len(site.ActualIns)+len(site.ActualOuts) == 0 {
				vs = append(vs, v.ID)
			}
		}
	}
	return vs
}

// replayPass is one replay of a workload: preload and warm-up bring a
// fresh cache to the state the server's had, then measured ops run until
// n are done (n > 0) or, with n == 0, until budget has elapsed.
type replayPass struct {
	ops        int
	wall       time.Duration // serving time of the measured ops
	allocBytes uint64
	failed     int
	mismatches []string // measured ops whose results differ from a kept e2e body
	r          *replayer
}

func replay(in *inputs, w *workloadSpec, traced bool, n int, budget time.Duration, kept map[int][]byte) (*replayPass, error) {
	r := &replayer{cache: newEngineLRU(w.cacheEntries)}
	for i := 0; i < in.corpus; i++ {
		body, _ := json.Marshal(server.SliceRequest{Program: in.sources[i]})
		if _, err := r.serve(body, false); err != nil {
			return nil, fmt.Errorf("replay preload %d: %w", i, err)
		}
	}
	for i := 0; i < in.warmup; i++ {
		if _, err := r.serve(requestBody(in, i), false); err != nil {
			return nil, fmt.Errorf("replay warm-up op %d: %w", i, err)
		}
	}
	runtime.GC()
	r.tr = tracer{on: traced, t0: time.Now()}
	p := &replayPass{r: r}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	for i := in.warmup; i < len(in.ops); i++ {
		if (n > 0 && p.ops == n) || (n == 0 && p.wall >= budget) {
			break
		}
		body := requestBody(in, i)
		r.tr.op = i
		metrics.Read(sample)
		a0 := sample[0].Value.Uint64()
		t0 := time.Now()
		resp, err := r.serve(body, true)
		p.wall += time.Since(t0)
		metrics.Read(sample)
		p.allocBytes += sample[0].Value.Uint64() - a0
		p.ops++
		if err != nil {
			p.failed++
			continue
		}
		for _, res := range resp.Results {
			if res.Error != "" {
				p.failed++
				break
			}
		}
		if b, ok := kept[i]; ok {
			var served server.SliceResponse
			if err := json.Unmarshal(b, &served); err == nil {
				if d := diffResults(resp.Results, served.Results); d != "" {
					p.mismatches = append(p.mismatches, fmt.Sprintf("op %d: replay differs from the server: %s", i, d))
				}
			}
		}
	}
	return p, nil
}
