package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/xrand"
)

// The traced run. It measures the first half of its window untraced and
// the second half traced, then replays a sample of the traced jobs one
// rung at a time through the layers' public functions. A layer's self
// time is its rung minus the rung below.

// span is one timed interval, kept in memory and written out at exit.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name, parent, job string, start, end time.Time) {
	if r == nil || start.IsZero() || end.IsZero() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name, int64(start.Sub(r.t0)), int64(end.Sub(r.t0)), parent, job})
	r.mu.Unlock()
}

// recordJob adds a finished job's client-side spans.
func (r *recorder) recordJob(o outcome) {
	r.add("job", "", o.ID, o.Sent, o.StreamEnd)
	r.add("submit", "job", o.ID, o.Sent, o.Accepted)
	r.add("first_line", "job", o.ID, o.Accepted, o.FirstLine)
	r.add("stream_end", "job", o.ID, o.Accepted, o.StreamEnd)
	r.add("events_end", "job", o.ID, o.Accepted, o.EventsEnd)
}

// promSnap is one /metrics scrape: series (name plus labels) to value.
type promSnap map[string]float64

func parseProm(text []byte) promSnap {
	s := make(promSnap)
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// sum adds every series of one metric name.
func (s promSnap) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is a metric's growth from before to s.
func (s promSnap) delta(before promSnap, name string) float64 {
	return s.sum(name) - before.sum(name)
}

// histMeanMS is a histogram's mean observation over the window, in ms.
func (s promSnap) histMeanMS(before promSnap, name string) (float64, int) {
	n := s.delta(before, name+"_count")
	if n == 0 {
		return 0, 0
	}
	return s.delta(before, name+"_sum") / n * 1000, int(n)
}

// samples is how many of the traced jobs the ladder replays.
func (b *bench) samples() int {
	switch b.gen.workload {
	case paperSweep:
		return 2
	case fleetSweep:
		return 2
	default:
		return 12
	}
}

// tracedRun measures both halves, replays the ladder and reports the
// per-layer metrics.
func (b *bench) tracedRun(ctx context.Context, st *stack, c *client) (*report, error) {
	pr := newProbe()
	half := b.window / 2
	outsA, probesA := b.measure(ctx, st, c, pr, 0, half)

	rec := &recorder{t0: time.Now()}
	var createMark int
	if st.store != nil {
		_, createMark = st.store.createTimes(0)
	}
	rpcBefore := st.rpcSnapshot()
	promBefore, err := b.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	probesB := []probeSample{pr.run()}
	outsB, more := b.measure(ctx, st, c, pr, len(outsA), half)
	probesB = append(append(probesB, more...), pr.run())
	promAfter, err := b.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	rpcWindow := rpcDelta(st.rpcSnapshot(), rpcBefore)
	var creates []float64
	if st.store != nil {
		creates, _ = st.store.createTimes(createMark)
	}
	for _, o := range outsB {
		rec.recordJob(o)
	}
	b.countJobs(append(append([]outcome(nil), outsA...), outsB...))
	for _, p := range append(probesA, probesB...) {
		if err := p.check(); err != nil {
			b.rep.problem("%v", err)
			break
		}
	}

	okB := succeeded(outsB)
	if len(okB) == 0 {
		return nil, fmt.Errorf("no traced job succeeded")
	}
	sample := okB
	if len(sample) > b.samples() {
		sample = sample[:b.samples()]
	}
	lad, err := b.ladder(ctx, sample, rec)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// Store and fleet figures come from the run's own window when the
	// run has that layer, and from the ladder's rung otherwise.
	store := lad.durable
	if st.store != nil {
		store = layerWindow{jobs: len(okB), before: promBefore, after: promAfter, creates: creates, reads: readTimes(st.store, okB)}
	}
	fleetWin := lad.fleet
	if st.role == roleFleet {
		fleetWin = layerWindow{jobs: len(okB), before: promBefore, after: promAfter, rpc: rpcWindow}
	}
	b.perLayer(outsA, outsB, probesA, probesB, promBefore, promAfter, lad, store, fleetWin)

	name, err := writeSpans(b.workdir, b.gen.workload, b.gen.seed, rec.spans)
	if err != nil {
		return nil, err
	}
	b.printf("trace %d spans written to %s\n", len(rec.spans), name)
	return &b.rep, nil
}

// maxReads bounds how many finished jobs' journals a window re-reads.
const maxReads = 50

// readTimes re-reads finished jobs' journals through the store, timing
// each read.
func readTimes(st *timedStore, outs []outcome) []float64 {
	var out []float64
	for i, o := range outs {
		if i == maxReads {
			break
		}
		if ms, n, err := st.readJob(o.ID); err == nil && n > 0 {
			out = append(out, ms)
		}
	}
	return out
}

// layerWindow is what one stack's store or fleet layer did over a set
// of jobs.
type layerWindow struct {
	jobs          int
	before, after promSnap
	creates       []float64 // store.Create times, ms
	reads         []float64 // journal re-read times, ms
	rpc           rpcStats
}

// engineStats accumulates the engine rung's per-round timings.
type engineStats struct {
	sparseNS, tiledNS         int64
	sparseRounds, tiledRounds int
	cobraTiledNS, pushes      int64
	bipsTiledNS, vertices     int64
}

func (e *engineStats) addAll(o engineStats) {
	e.sparseNS += o.sparseNS
	e.tiledNS += o.tiledNS
	e.sparseRounds += o.sparseRounds
	e.tiledRounds += o.tiledRounds
	e.cobraTiledNS += o.cobraTiledNS
	e.pushes += o.pushes
	e.bipsTiledNS += o.bipsTiledNS
	e.vertices += o.vertices
}

// ladderResult is the replay's rung timings, in ms per sampled job, in
// the order of the sample.
type ladderResult struct {
	compileMS map[string]float64
	workingMB map[string]float64
	engine    engineStats
	family    map[string]*engineStats
	rungs     map[string][]float64
	served    []float64 // the run's own wall time of each sampled job
	trials    int
	durable   layerWindow
	fleet     layerWindow
}

var rungOrder = []string{"engine", "core", "batch", "memory", "durable", "fleet"}

// ladder replays the sampled jobs rung by rung, checking every rung's
// results against what the run served.
func (b *bench) ladder(ctx context.Context, sample []outcome, rec *recorder) (*ladderResult, error) {
	lad := &ladderResult{
		compileMS: map[string]float64{}, workingMB: map[string]float64{},
		family: map[string]*engineStats{}, rungs: map[string][]float64{},
	}
	graphs := map[string]*graph.Graph{}
	cache := batch.NewCache(serverConfig().CacheSize)
	for _, o := range sample {
		lad.served = append(lad.served, o.wallMS())
		lad.trials += o.Job.Trials()
		for _, spec := range o.Job.Graphs() {
			key := graphKey(spec, o.Job.Seed())
			if graphs[key] != nil {
				continue
			}
			t0 := time.Now()
			g, err := graphspec.Parse(spec, o.Job.Seed())
			if err != nil {
				return nil, err
			}
			lad.compileMS[spec] = msSince(t0)
			lad.workingMB[spec] = workingSetMB(g.N(), g.M())
			graphs[key] = g
			if _, err := cache.GetOrBuild(spec, o.Job.Seed()); err != nil {
				return nil, err
			}
		}
	}
	timed := func(rung, id string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		lad.rungs[rung] = append(lad.rungs[rung], msSince(t0))
		rec.add("ladder."+rung, "", id, t0, time.Now())
		return err
	}
	for _, o := range sample {
		served, err := parseServed(o.Job, o.Body)
		if err != nil {
			return nil, err
		}
		if err := timed("engine", o.ID, func() error { return replayEngine(o.Job, graphs, served, lad) }); err != nil {
			return nil, err
		}
		if err := timed("core", o.ID, func() error { return replayCore(o.Job, graphs, served) }); err != nil {
			return nil, err
		}
		var body []byte
		if err := timed("batch", o.ID, func() error {
			var err error
			body, err = libraryRun(ctx, o.Job, cache)
			return err
		}); err != nil {
			return nil, err
		}
		if !bytes.Equal(body, o.Body) {
			return nil, fmt.Errorf("library rung: job %d bytes differ from the served bytes", o.Job.Index)
		}
	}
	for _, r := range []role{roleMemory, roleDurable, roleFleet} {
		win, err := b.httpRung(ctx, r, sample, lad, rec)
		if err != nil {
			return nil, err
		}
		switch r {
		case roleDurable:
			lad.durable = win
		case roleFleet:
			lad.fleet = win
		}
	}
	return lad, nil
}

// httpRung replays the sample through a fresh stack of one role, after a
// warm-up job that compiles its graphs, and requires the served bytes.
func (b *bench) httpRung(ctx context.Context, r role, sample []outcome, lad *ladderResult, rec *recorder) (layerWindow, error) {
	st, err := newStack(r, b.storeDir())
	if err != nil {
		return layerWindow{}, err
	}
	defer st.Close()
	c := newClient(st.URL())
	defer c.close()
	if o := c.run(ctx, b.gen.warmup(), time.Now()); o.Err != nil {
		return layerWindow{}, fmt.Errorf("%s rung warm-up: %w", r, o.Err)
	}
	win := layerWindow{jobs: len(sample)}
	if win.before, err = b.scrape(ctx, c); err != nil {
		return win, err
	}
	var mark int
	if st.store != nil {
		_, mark = st.store.createTimes(0)
	}
	rpcBefore := st.rpcSnapshot()
	var done []outcome
	for _, s := range sample {
		job := s.Job
		job.Events, job.Reread = false, -1
		st.markJobStart()
		o := c.run(ctx, job, time.Now())
		if o.Err != nil {
			return win, fmt.Errorf("%s rung: %w", r, o.Err)
		}
		if !bytes.Equal(o.Body, s.Body) {
			return win, fmt.Errorf("%s rung: job %d bytes differ from the served bytes", r, job.Index)
		}
		lad.rungs[string(r)] = append(lad.rungs[string(r)], o.wallMS())
		rec.add("ladder."+string(r), "", o.ID, o.Sent, o.StreamEnd)
		done = append(done, o)
	}
	if win.after, err = b.scrape(ctx, c); err != nil {
		return win, err
	}
	if st.store != nil {
		win.creates, _ = st.store.createTimes(mark)
		win.reads = readTimes(st.store, done)
	}
	win.rpc = rpcDelta(st.rpcSnapshot(), rpcBefore)
	return win, nil
}

func graphKey(spec string, seed uint64) string { return spec + "#" + strconv.FormatUint(seed, 10) }

// parseServed decodes a served results body into (cell, trial) order.
func parseServed(job Job, body []byte) ([]batch.CellResult, error) {
	var out []batch.CellResult
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var r batch.CellResult
		var v any = &r.TrialResult
		if job.Sweep != nil {
			v = &r
		}
		if err := json.Unmarshal(line, v); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) != job.Trials() {
		return nil, fmt.Errorf("served %d results, want %d", len(out), job.Trials())
	}
	return out, nil
}

// forTrials runs fn for every (cell, trial) of the job on as many
// goroutines as the job had computing — its compute parallelism, but
// never more than there are CPUs (a fleet job offers all its cells at
// once, yet only the workers compute) — each with its own workspace,
// returning the first error. fn's w indexes the goroutine.
func forTrials(job Job, fn func(w int, ws *engine.Workspace, i int, spec batch.Spec, k int) error) error {
	cells := job.Cells()
	per := job.TrialsPerCell()
	var next atomic.Int64
	par := replayParallelism(job)
	errs := make([]error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := engine.NewWorkspace()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells)*per || errs[w] != nil {
					return
				}
				errs[w] = fn(w, ws, i, cells[i/per], i%per)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayEngine is rung 2: each trial's kernel built with the batch seed
// derivation (one Uint64 from xrand.NewStream(seed, k)) and stepped in a
// timed loop, each round classified from the kernel's counters. The
// replay must reproduce the served rounds, sends and representation
// counts of every trial.
func replayEngine(job Job, graphs map[string]*graph.Graph, served []batch.CellResult, lad *ladderResult) error {
	parts := make([]engineStats, replayParallelism(job))
	fams := make([]map[string]*engineStats, replayParallelism(job))
	err := forTrials(job, func(w int, ws *engine.Workspace, i int, spec batch.Spec, k int) error {
		g := graphs[graphKey(spec.Graph, spec.Seed)]
		par := engine.Params{Branch: spec.Branch, Rho: spec.Rho, Lazy: spec.Lazy, Workers: 1}
		seed := xrand.NewStream(spec.Seed, uint64(k)).Uint64()
		var kern *engine.Kernel
		var err error
		if spec.Process == "cobra" {
			kern, err = engine.NewCobraWith(ws, g, par, []int{spec.Start}, seed)
		} else {
			kern, err = engine.NewBipsWith(ws, g, par, spec.Start, seed)
		}
		if err != nil {
			return err
		}
		if fams[w] == nil {
			fams[w] = map[string]*engineStats{}
		}
		fam := strings.SplitN(spec.Graph, ":", 2)[0]
		fs := fams[w][fam]
		if fs == nil {
			fs = &engineStats{}
			fams[w][fam] = fs
		}
		var es engineStats
		limit := engine.DefaultMaxRounds(g.N())
		for !kern.Complete() {
			if kern.Round() >= limit {
				return fmt.Errorf("engine replay hit the round limit on %s", spec.Graph)
			}
			sp, sent := kern.SparseRounds(), kern.Sent()
			t0 := time.Now()
			kern.Step()
			ns := int64(time.Since(t0))
			switch {
			case kern.SparseRounds() > sp:
				es.sparseNS += ns
				es.sparseRounds++
			default:
				es.tiledNS += ns
				es.tiledRounds++
				if spec.Process == "cobra" {
					es.cobraTiledNS += ns
					es.pushes += kern.Sent() - sent
				} else {
					es.bipsTiledNS += ns
					es.vertices += int64(g.N())
				}
			}
		}
		want := served[i]
		if kern.Round() != want.Rounds || kern.Sent() != want.Sent || kern.SparseRounds() != want.SparseRounds || kern.TiledRounds() != want.TiledRounds {
			return fmt.Errorf("engine replay of cell %d trial %d: rounds/sent/sparse/tiled %d/%d/%d/%d, served %d/%d/%d/%d",
				i/job.TrialsPerCell(), k, kern.Round(), kern.Sent(), kern.SparseRounds(), kern.TiledRounds(),
				want.Rounds, want.Sent, want.SparseRounds, want.TiledRounds)
		}
		parts[w].addAll(es)
		fs.addAll(es)
		return nil
	})
	for w := range parts {
		lad.engine.addAll(parts[w])
		for fam, fs := range fams[w] {
			if lad.family[fam] == nil {
				lad.family[fam] = &engineStats{}
			}
			lad.family[fam].addAll(*fs)
		}
	}
	return err
}

// replayCore is rung 3: core.CoverTimeWith / bips.InfectionTimeWith,
// which must reproduce every served round count.
func replayCore(job Job, graphs map[string]*graph.Graph, served []batch.CellResult) error {
	return forTrials(job, func(_ int, ws *engine.Workspace, i int, spec batch.Spec, k int) error {
		g := graphs[graphKey(spec.Graph, spec.Seed)]
		rng := xrand.NewStream(spec.Seed, uint64(k))
		var rounds int
		var err error
		if spec.Process == "cobra" {
			rounds, err = core.CoverTimeWith(ws, g, core.Config{Branch: spec.Branch, Rho: spec.Rho, Lazy: spec.Lazy}, spec.Start, rng)
		} else {
			rounds, err = bips.InfectionTimeWith(ws, g, bips.Config{Branch: spec.Branch, Rho: spec.Rho, Lazy: spec.Lazy}, spec.Start, rng)
		}
		if err != nil {
			return err
		}
		if rounds != served[i].Rounds {
			return fmt.Errorf("core replay of trial %d: %d rounds, served %d", i, rounds, served[i].Rounds)
		}
		return nil
	})
}

func replayParallelism(job Job) int { return min(job.Parallelism(), runtime.NumCPU()) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes and reports every per-layer metric.
func (b *bench) perLayer(outsA, outsB []outcome, probesA, probesB []probeSample, before, after promSnap, lad *ladderResult, store, fleetWin layerWindow) {
	rep := &b.rep
	okA, okB := succeeded(outsA), succeeded(outsB)

	// graph and graphspec
	var compile, working float64
	specs := make([]string, 0, len(lad.compileMS))
	for s := range lad.compileMS {
		specs = append(specs, s)
	}
	sort.Strings(specs)
	for _, s := range specs {
		compile += lad.compileMS[s]
		if lad.workingMB[s] > working {
			working = lad.workingMB[s]
		}
		rep.addDiag("graph.compile_ms."+s, "ms", lad.compileMS[s], 1, "")
		rep.addDiag("graph.working_set_mb."+s, "MB", lad.workingMB[s], 1, "")
	}
	rep.add("graph.compile_ms", "ms", compile, len(specs), "graphspec.Parse, summed over the workload's graphs")
	rep.add("graph.working_set_mb", "MB", working, len(specs), "largest graph: CSR plus kernel state")

	// engine
	e := lad.engine
	rep.add("engine.sparse_round_us", "us", ratio(float64(e.sparseNS)/1e3, float64(e.sparseRounds)), e.sparseRounds, "")
	rep.add("engine.tiled_round_us", "us", ratio(float64(e.tiledNS)/1e3, float64(e.tiledRounds)), e.tiledRounds, "")
	rep.add("engine.ns_per_push", "ns", ratio(float64(e.cobraTiledNS), float64(e.pushes)), int(e.pushes), "COBRA tiled rounds")
	rep.add("engine.ns_per_vertex", "ns", ratio(float64(e.bipsTiledNS), float64(e.vertices)), int(e.vertices), "BIPS tiled rounds")
	rep.add("engine.rounds_sparse", "count", float64(e.sparseRounds), lad.trials, "exact for a seed")
	rep.add("engine.rounds_tiled", "count", float64(e.tiledRounds), lad.trials, "exact for a seed")
	fams := make([]string, 0, len(lad.family))
	for f := range lad.family {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		fe := lad.family[f]
		rep.addDiag("engine.sparse_round_us."+f, "us", ratio(float64(fe.sparseNS)/1e3, float64(fe.sparseRounds)), fe.sparseRounds, "")
		rep.addDiag("engine.tiled_round_us."+f, "us", ratio(float64(fe.tiledNS)/1e3, float64(fe.tiledRounds)), fe.tiledRounds, "")
		rep.addDiag("engine.ns_per_push."+f, "ns", ratio(float64(fe.cobraTiledNS), float64(fe.pushes)), int(fe.pushes), "")
		rep.addDiag("engine.ns_per_vertex."+f, "ns", ratio(float64(fe.bipsTiledNS), float64(fe.vertices)), int(fe.vertices), "")
	}
	served := sum(lad.served)
	rung := func(name string) float64 { return sum(lad.rungs[name]) }
	k := len(lad.served)
	for _, name := range rungOrder {
		rep.addDiag("ladder."+name+"_ms_per_job", "ms", rung(name)/float64(k), k, "")
	}
	rep.addDiag("ladder.served_ms_per_job", "ms", served/float64(k), k, "the run's own wall time of the sampled jobs")
	rep.add("engine.share", "ratio", ratio(rung("engine"), served), k, "engine rung / the run's job wall time")

	// core, batch, service, fleet rungs
	perTrialUS := func(hi, lo string) float64 { return (rung(hi) - rung(lo)) * 1000 / float64(lad.trials) }
	rep.add("core.overhead_us_per_trial", "us", perTrialUS("core", "engine"), lad.trials, "core rung - engine rung")
	rep.add("batch.overhead_us_per_trial", "us", perTrialUS("batch", "engine"), lad.trials, "batch rung - engine rung")
	rep.add("service.overhead_ms_per_job", "ms", (rung("memory")-rung("batch"))/float64(k), k, "HTTP in-memory rung - batch rung")
	rep.add("fleet.share", "ratio", ratio(rung("fleet")-rung("durable"), served), k, "(fleet rung - durable rung) / the run's job wall time")

	// batch internals over the traced window
	hits := after.delta(before, "cobrad_graph_cache_hits_total")
	misses := after.delta(before, "cobrad_graph_cache_misses_total")
	rep.add("cache.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), "server graph cache over the traced window")
	cw, cn := after.histMeanMS(before, "cobrad_cell_wall_seconds")
	rep.add("cellsched.cell_wall_ms", "ms", cw, cn, "")
	rep.add("cellsched.stalls", "count", after.delta(before, "cobrad_backpressure_stalls_total"), len(okB), "")

	// service, from the traced jobs' client spans
	var submit, first []float64
	for _, o := range okB {
		submit = append(submit, float64(o.Accepted.Sub(o.Sent))/1e6)
		first = append(first, float64(o.FirstLine.Sub(o.Sent))/1e6)
	}
	rep.add("service.submit_ms", "ms", median(submit), len(submit), "POST until the 202")
	rep.add("service.first_result_ms", "ms", median(first), len(first), "POST until the first result line")
	qw, qn := after.histMeanMS(before, "cobrad_admission_wait_seconds")
	rep.add("service.queue_wait_ms", "ms", qw, qn, "")

	// store
	creates := store.creates
	rep.add("store.create_ms", "ms", median(creates), len(creates), "")
	fsyncs := store.after.delta(store.before, "cobrad_journal_fsync_seconds_count")
	rep.add("store.fsyncs_per_job", "count", ratio(fsyncs, float64(store.jobs)), store.jobs, "")
	fs, fn := store.after.histMeanMS(store.before, "cobrad_journal_fsync_seconds")
	rep.add("store.fsync_ms", "ms", fs, fn, "")
	rep.add("store.appends_per_job", "count", ratio(store.after.delta(store.before, "cobrad_journal_appends_total"), float64(store.jobs)), store.jobs, "")
	rep.add("store.read_ms", "ms", median(store.reads), len(store.reads), "store.Results over a finished job's journal")

	// fleet
	rpc := fleetWin.rpc
	cells := float64(rpc.completes)
	total := 0
	for _, route := range []string{"acquire", "renew", "complete"} {
		rep.add("fleet.rpc_ms."+route, "ms", median(rpc.ms[route]), len(rpc.ms[route]), "")
		total += len(rpc.ms[route])
	}
	rep.add("fleet.rpcs_per_cell", "count", ratio(float64(total), cells), rpc.completes, "")
	rep.add("fleet.empty_acquire_ratio", "ratio", ratio(float64(rpc.emptyAcq), float64(rpc.acquires)), rpc.acquires, "")
	rep.add("fleet.idle_ms_per_cell", "ms", mean(rpc.idle), len(rpc.idle), "complete until the next grant, within a job")
	rep.add("fleet.leases_expired", "count", fleetWin.after.delta(fleetWin.before, "cobrad_fleet_leases_expired_total"), rpc.completes, "")

	// obs and harness
	rep.add("obs.scrape_ms", "ms", median(b.scrapeMS), len(b.scrapeMS), "GET /metrics")
	var late []float64
	for _, o := range okB {
		late = append(late, float64(o.Sent.Sub(o.Due))/1e6)
	}
	rep.addDiag("loadgen.late_ms", "ms", median(late), len(late), fmt.Sprintf("p95 %.3f ms", quantile(late, 0.95)))
	var rates []float64
	for _, p := range append(append([]probeSample(nil), probesA...), probesB...) {
		rates = append(rates, p.Rate)
	}
	rep.add("host.probe_rate", "M/s", median(rates), len(rates), "")
	rep.add("trace.overhead_pct", "%", b.traceOverhead(okA, okB, probesA, probesB), len(okA)+len(okB), "traced half against untraced half")
}

// traceOverhead compares the traced half's headline metric with the
// untraced half's, in percent worse.
func (b *bench) traceOverhead(a, t []outcome, pa, pt []probeSample) float64 {
	if len(a) == 0 || len(t) == 0 {
		return 0
	}
	if b.gen.workload == smallJobs {
		var la, lt []float64
		for _, o := range a {
			la = append(la, o.latencyMS())
		}
		for _, o := range t {
			lt = append(lt, o.latencyMS())
		}
		e := hostExponents[smallJobs].p50
		ua := median(la) / hostFactor(probeMedian(pa), e)
		ut := median(lt) / hostFactor(probeMedian(pt), e)
		return (ut - ua) / ua * 100
	}
	e := hostExponents[b.gen.workload].rate
	sa := median(jobRates(a)) * hostFactor(probeMedian(pa), e)
	st := median(jobRates(t)) * hostFactor(probeMedian(pt), e)
	return (sa - st) / sa * 100
}
