package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// keepBodies is how many jobs of an open-loop window keep their result
// bytes after being checked: the library comparison and the traced
// ladder replay only the first jobs.
const keepBodies = 32

// setupReps is how many times an untraced run builds its stack; setup_s
// is the median, and the last stack serves the measured window.
const setupReps = 7

// bench is one run of one workload.
type bench struct {
	gen     generator
	window  time.Duration
	traced  bool
	dir     string // this run's scratch directory
	workdir string
	out     io.Writer
	host    hostInfo
	rep     report
	stores  int

	mu       sync.Mutex
	finished map[int]outcome // finished jobs by index, for re-reads
	scrapeMS []float64       // /metrics scrape times
}

// role is how the workload's server is wired.
func (b *bench) role() role {
	switch b.gen.workload {
	case paperSweep:
		return roleMemory
	case smallJobs:
		return roleDurable
	default:
		return roleFleet
	}
}

func (b *bench) inflight() int {
	if b.gen.workload == smallJobs {
		return smallInflight
	}
	return 1
}

func (b *bench) storeDir() string {
	b.stores++
	return filepath.Join(b.dir, fmt.Sprintf("store-%d", b.stores))
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// run sets up, guards the load shape, checks the goldens, measures and
// reports. An error means the run could not be made at all.
func (b *bench) run() (*report, error) {
	// Whatever hangs, the run ends well inside the 180 s a run may take
	// beyond its window.
	ctx, cancel := context.WithTimeout(context.Background(), b.window+150*time.Second)
	defer cancel()
	b.finished = make(map[int]outcome)
	h := b.host
	b.printf("host nproc=%d gomaxprocs=%d cpu=%q l2=%s l3=%s\n", h.NProc, h.GoMaxProcs, h.CPUModel, h.L2, h.L3)

	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setups []float64
	var st *stack
	var c *client
	for k := 0; k < reps; k++ {
		if st != nil {
			c.close()
			st.Close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = newStack(b.role(), b.storeDir()); err != nil {
			return nil, err
		}
		c = newClient(st.URL())
		warm := c.run(ctx, b.gen.warmup(), time.Now())
		setups = append(setups, time.Since(t0).Seconds())
		if warm.Err != nil {
			b.rep.problem("warm-up: %v", warm.Err)
		}
	}
	defer func() {
		c.close()
		st.Close()
	}()

	sample := b.gen.job(0)
	goroutines := st.computeGoroutines(b.inflight(), sample)
	b.printf("load workload=%s role=%s compute_goroutines=%d inflight_cap=%d cell_workers=%d trial_workers=%d\n",
		b.gen.workload, b.role(), goroutines, b.inflight(), sample.Parallelism()/sample.Cells()[0].Workers, sample.Cells()[0].Workers)
	if goroutines > h.NProc || b.inflight() > h.NProc {
		return nil, fmt.Errorf("refusing a load above nproc=%d: %d compute goroutines, %d jobs in flight", h.NProc, goroutines, b.inflight())
	}
	for _, gs := range b.gen.graphs() {
		n, m := specSize(gs)
		b.printf("graph %s n=%d m~%d working_set_mb=%.2f\n", gs, n, m, workingSetMB(n, m))
	}
	if err := checkGoldens(ctx, c); err != nil {
		b.rep.problem("%v", err)
	}

	if b.traced {
		return b.tracedRun(ctx, st, c)
	}
	pr := newProbe()
	outs, probes := b.measure(ctx, st, c, pr, 0, b.window)
	b.verifyLibrary(ctx, outs)
	b.countJobs(outs)
	b.endToEnd(outs, probes, setups)
	return &b.rep, nil
}

// measure runs the workload's loop for d, starting at job index first.
func (b *bench) measure(ctx context.Context, st *stack, c *client, pr *probe, first int, d time.Duration) ([]outcome, []probeSample) {
	if b.gen.workload == smallJobs {
		// The open loop cannot pause for the probe, so it is probed on
		// either side of the window.
		before := pr.run()
		outs := b.openLoop(ctx, c, first, d)
		return outs, []probeSample{before, pr.run()}
	}
	return b.closedLoop(ctx, st, c, pr, first, d)
}

// closedLoop sends one job at a time, each as soon as the previous one
// is checked, with a host probe between consecutive jobs.
func (b *bench) closedLoop(ctx context.Context, st *stack, c *client, pr *probe, first int, d time.Duration) ([]outcome, []probeSample) {
	var outs []outcome
	before := pr.run()
	probes := []probeSample{before}
	end := time.Now().Add(d)
	for i := first; time.Now().Before(end); i++ {
		st.markJobStart()
		o := c.run(ctx, b.gen.job(i), time.Now())
		after := pr.run()
		probes = append(probes, after)
		before = after
		outs = append(outs, o)
	}
	return outs, probes
}

// openLoop sends job k at start + k/smallRate whatever the server does,
// with at most smallInflight jobs in flight, and scrapes /metrics and
// /v1/stats once a second meanwhile.
func (b *bench) openLoop(ctx context.Context, c *client, first int, d time.Duration) []outcome {
	interval := time.Second / smallRate
	n := int(d / interval)
	outs := make([]outcome, n)
	sem := make(chan struct{}, smallInflight)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := b.scrape(ctx, c); err != nil {
					b.mu.Lock()
					b.rep.problem("scrape: %v", err)
					b.mu.Unlock()
				}
			}
		}
	}()
	start := time.Now().Add(10 * time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			job := b.gen.job(first + k)
			o := c.run(ctx, job, due)
			if o.Err == nil && job.Reread >= 0 {
				o.Err = b.reread(ctx, c, job.Reread)
			}
			if k >= keepBodies {
				// Thousands of retained bodies would grow the heap the
				// server shares with the client; later checks need only
				// the first jobs' bytes and the digests.
				o.Body, o.Status = nil, nil
			}
			b.mu.Lock()
			b.finished[job.Index] = o
			b.mu.Unlock()
			outs[k] = o
		}(k)
	}
	wg.Wait()
	close(stop)
	<-scraped
	return outs
}

// reread fetches an earlier job's results again — from the journal once
// the server has evicted them — and requires the same bytes. A target
// still in flight, or one that failed, is skipped.
func (b *bench) reread(ctx context.Context, c *client, index int) error {
	b.mu.Lock()
	old, ok := b.finished[index]
	b.mu.Unlock()
	if !ok || old.Err != nil {
		return nil
	}
	body, _, err := c.results(ctx, c.base+old.Job.Path()+"/"+old.ID+"/results")
	if err != nil {
		return fmt.Errorf("re-read of job %d: %w", index, err)
	}
	if sha256.Sum256(body) != old.Digest {
		return fmt.Errorf("re-read of job %d (%s) returned different bytes", index, old.ID)
	}
	return nil
}

// scrape reads /metrics and /v1/stats, timing the /metrics read.
func (b *bench) scrape(ctx context.Context, c *client) (promSnap, error) {
	t0 := time.Now()
	text, err := c.get(ctx, c.base+"/metrics")
	ms := msSince(t0)
	if err != nil {
		return nil, err
	}
	if _, err := c.get(ctx, c.base+"/v1/stats"); err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.scrapeMS = append(b.scrapeMS, ms)
	b.mu.Unlock()
	return parseProm(text), nil
}

// verifyLibrary byte-compares the first job with the library path: the
// NDJSON Compile/CompileSweep + Run emit for the same spec. On
// fleet-sweep this is the comparison with the same sweep run standalone.
func (b *bench) verifyLibrary(ctx context.Context, outs []outcome) {
	if len(outs) == 0 || outs[0].Err != nil {
		return
	}
	want, err := libraryRun(ctx, outs[0].Job, batch.NewCache(serverConfig().CacheSize))
	if err == nil && !bytes.Equal(want, outs[0].Body) {
		err = fmt.Errorf("served %d bytes differ from the library path's %d", len(outs[0].Body), len(want))
	}
	if err != nil {
		outs[0].Err = fmt.Errorf("job 0 against the library path: %w", err)
	}
}

// countJobs folds the jobs into attempted/failed, reporting the first
// few failures.
func (b *bench) countJobs(outs []outcome) {
	for _, o := range outs {
		b.rep.attempted++
		if o.Err != nil {
			b.rep.failed++
			if b.rep.failed <= 5 {
				b.rep.problem("%v", o.Err)
			}
		}
	}
	if b.rep.failed > 5 {
		b.rep.problem("%d failed jobs in all", b.rep.failed)
	}
}

// succeeded drops failed jobs.
func succeeded(outs []outcome) []outcome {
	var ok []outcome
	for _, o := range outs {
		if o.Err == nil {
			ok = append(ok, o)
		}
	}
	return ok
}

// jobRates returns each job's trials per second of wall time.
func jobRates(outs []outcome) []float64 {
	var raw []float64
	for _, o := range outs {
		raw = append(raw, float64(o.Job.Trials())/(o.wallMS()/1000))
	}
	return raw
}

// probeMedian is the median rate of a run's host probes. A single probe
// pass wobbles by ±15% on a shared host, so a run is scaled by the
// median of all its passes rather than job by job.
func probeMedian(probes []probeSample) float64 {
	var rates []float64
	for _, p := range probes {
		rates = append(rates, p.Rate)
	}
	return median(rates)
}

// sliceJobs is how many due times make one slice of an open-loop
// window: enough for minTail jobs beyond each slice's p95.
const sliceJobs = 250

// sliceP95s cuts an open-loop window into consecutive slices of
// sliceJobs due times and returns each slice's latency p95. The reported
// p95 is their median: a disk stall on the shared host slows a burst of
// jobs, which moves one slice's p95 but not the median of eight, where it
// would move a whole-window p95 from run to run.
func sliceP95s(outs []outcome) ([]float64, error) {
	if len(outs) == 0 {
		return nil, fmt.Errorf("no jobs to take a p95 of")
	}
	first, last := outs[0].Job.Index, outs[len(outs)-1].Job.Index
	n := (last - first + 1) / sliceJobs // a short tail joins the last slice
	if n < 1 {
		n = 1
	}
	slices := make([][]float64, n)
	for _, o := range outs {
		k := min((o.Job.Index-first)/sliceJobs, n-1)
		slices[k] = append(slices[k], o.latencyMS())
	}
	var p95s []float64
	for k, lat := range slices {
		if tail := tailCount(lat); tail < minTail {
			return p95s, fmt.Errorf("slice %d: only %d of %d jobs beyond p95; need %d", k, tail, len(lat), minTail)
		}
		p95s = append(p95s, quantile(lat, 0.95))
	}
	return p95s, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (b *bench) endToEnd(all []outcome, probes []probeSample, setups []float64) {
	for _, p := range probes {
		if err := p.check(); err != nil {
			b.rep.problem("%v", err)
			break
		}
	}
	outs := succeeded(all)
	raw := jobRates(outs)
	pm := probeMedian(probes)
	e := hostExponents[b.gen.workload]
	note := func(exp float64) string { return fmt.Sprintf("scaled by (reference/probe)^%.2f", exp) }
	var lat []float64
	if b.gen.workload == smallJobs {
		for _, o := range outs {
			lat = append(lat, o.latencyMS())
		}
		p95s, err := sliceP95s(outs)
		if err != nil {
			b.rep.problem("%v", err)
		}
		b.rep.add("trials_per_s", "1/s", median(raw)*hostFactor(pm, e.rate), len(raw), note(e.rate))
		b.rep.add("job_p50_ms", "ms", median(lat)/hostFactor(pm, e.p50), len(lat), "from when each job was due, "+note(e.p50))
		b.rep.add("job_p95_ms", "ms", median(p95s)/hostFactor(pm, e.p95), len(lat), fmt.Sprintf("median of %d slice p95s of at least %d jobs, %s", len(p95s), sliceJobs, note(e.p95)))
		b.rep.addDiag("job_p95_ms.raw", "ms", median(p95s), len(lat), "unscaled")
		b.rep.addDiag("job_p95_ms.whole_window", "ms", quantile(lat, 0.95), len(lat), fmt.Sprintf("unscaled, %d jobs beyond it", tailCount(lat)))
		var late, submit []float64
		for _, o := range outs {
			late = append(late, float64(o.Sent.Sub(o.Due))/1e6)
			submit = append(submit, float64(o.Accepted.Sub(o.Sent))/1e6)
		}
		b.rep.addDiag("loadgen.late_ms", "ms", median(late), len(late), "due until sent")
		b.rep.addDiag("service.submit_ms", "ms", median(submit), len(submit), "POST until the 202")
	} else {
		for _, o := range outs {
			lat = append(lat, o.wallMS())
		}
		b.rep.add("trials_per_s", "1/s", median(raw)*hostFactor(pm, e.rate), len(raw), note(e.rate))
		b.rep.add("job_p50_ms", "ms", median(lat)/hostFactor(pm, e.p50), len(lat), "job wall time, "+note(e.p50))
		b.rep.add("job_p95_ms", "ms", normalP95(lat)/hostFactor(pm, e.p95), len(lat), "median + 1.645*1.4826*MAD of job wall time, "+note(e.p95))
		b.rep.addDiag("job_p95_ms.raw", "ms", normalP95(lat), len(lat), "unscaled")
		b.rep.addDiag("job_p95_ms.empirical", "ms", quantile(lat, 0.95), len(lat), "unscaled order statistic")
	}
	b.rep.add("setup_s", "s", median(setups)/hostFactor(pm, e.setup), len(setups), "median of set-ups, "+note(e.setup))
	b.rep.add("peak_rss_mb", "MB", peakRSSMB(), 1, "")
	b.rep.addDiag("trials_per_s.raw", "1/s", median(raw), len(raw), "unscaled")
	b.rep.addDiag("job_p50_ms.raw", "ms", median(lat), len(lat), "unscaled")
	b.rep.addDiag("setup_s.raw", "s", median(setups), len(setups), "unscaled")
	b.rep.addDiag("host.probe_rate", "M/s", pm, len(probes), "reference "+fmt.Sprint(refProbeRate))
	rate := 0.0
	if b.rep.attempted > 0 {
		rate = float64(b.rep.failed) / float64(b.rep.attempted)
	}
	b.rep.addDiag("error_rate", "ratio", rate, b.rep.attempted, "failed, rejected, aborted or wrong-byte jobs / attempted")
}
