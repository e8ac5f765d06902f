package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/stats"
)

// client drives one stack over HTTP the way a cobrad user would: submit,
// follow the results stream to its trailer, read the status, and check
// everything it got back.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// outcome is one job as the client saw it.
type outcome struct {
	Job       Job
	ID        string
	Due       time.Time // when the job was due to be sent
	Sent      time.Time // POST issued
	Accepted  time.Time // 202 received
	FirstLine time.Time // first result line received
	StreamEnd time.Time // results stream ended with a complete trailer
	EventsEnd time.Time // /events stream ended (Events jobs only)
	Body      []byte    // the results NDJSON
	Digest    [32]byte  // sha256 of Body, kept when Body is dropped
	Status    []byte    // the final status JSON
	Err       error     // failed, rejected, aborted or wrong bytes
}

// wallMS is the job wall time: POST until the complete trailer.
func (o outcome) wallMS() float64 { return float64(o.StreamEnd.Sub(o.Sent)) / 1e6 }

// latencyMS runs from when the job was due, so time spent waiting for an
// in-flight slot counts against the system, not in its favour.
func (o outcome) latencyMS() float64 { return float64(o.StreamEnd.Sub(o.Due)) / 1e6 }

// run submits job, follows it to the end and checks what came back.
func (c *client) run(ctx context.Context, job Job, due time.Time) outcome {
	o := outcome{Job: job, Due: due, Sent: time.Now()}
	id, err := c.submit(ctx, job)
	o.Accepted = time.Now()
	if err != nil {
		o.Err = err
		return o
	}
	o.ID = id
	base := c.base + job.Path() + "/" + id
	var evErr error
	var evWG sync.WaitGroup
	if job.Events {
		evWG.Add(1)
		go func() {
			defer evWG.Done()
			evErr = c.followEvents(ctx, base+"/events")
			o.EventsEnd = time.Now()
		}()
	}
	body, first, err := c.results(ctx, base+"/results")
	o.StreamEnd, o.FirstLine, o.Body, o.Digest = time.Now(), first, body, sha256.Sum256(body)
	evWG.Wait()
	if err == nil {
		err = evErr
	}
	if err == nil {
		o.Status, err = c.get(ctx, base)
	}
	if err == nil {
		err = checkJob(job, o.Body, o.Status)
	}
	if err != nil {
		o.Err = fmt.Errorf("job %d (%s): %w", job.Index, id, err)
	}
	return o
}

// submit POSTs the job and returns its id; a 503 is an error like any
// other non-202 answer.
func (c *client) submit(ctx context.Context, job Job) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+job.Path(), bytes.NewReader(job.Body()))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit answered %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.ID == "" {
		return "", fmt.Errorf("submit: bad acknowledgement %q", raw)
	}
	return ack.ID, nil
}

// results follows a results stream to its end and requires the complete
// trailer. It returns the body and when the first line arrived.
func (c *client) results(ctx context.Context, url string) ([]byte, time.Time, error) {
	var first time.Time
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, first, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, first, fmt.Errorf("results answered %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			buf.Write(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, first, err
		}
	}
	if v := resp.Trailer.Get(batch.StreamTrailer); v != batch.StreamComplete {
		return nil, first, fmt.Errorf("results stream ended %q, want %q", v, batch.StreamComplete)
	}
	return buf.Bytes(), first, nil
}

// followEvents reads a job's server-sent events until the single end
// event, which must say complete.
func (c *client) followEvents(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok && event == "end" {
			if v != "complete" {
				return fmt.Errorf("events ended %q", v)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events stream closed without an end event")
}

func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d", url, resp.StatusCode)
	}
	return raw, nil
}

// checkJob verifies a finished job: every trial present and in (cell,
// trial) order, every line in its canonical encoding, the job done, and
// each status aggregate equal to the fold of the streamed rounds.
func checkJob(job Job, body, status []byte) error {
	cells := job.Cells()
	per := job.TrialsPerCell()
	lines := bytes.SplitAfter(body, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(cells)*per {
		return fmt.Errorf("%d result lines, want %d", len(lines), len(cells)*per)
	}
	folds := make([]*stats.Online, len(cells))
	for i := range folds {
		folds[i] = stats.NewOnline()
	}
	for i, line := range lines {
		line = bytes.TrimSuffix(line, []byte("\n"))
		var r batch.CellResult
		var v any = &r.TrialResult
		if job.Sweep != nil {
			v = &r
		}
		if err := json.Unmarshal(line, v); err != nil {
			return fmt.Errorf("line %d: %v", i, err)
		}
		canon, err := json.Marshal(v)
		if err != nil || !bytes.Equal(canon, line) {
			return fmt.Errorf("line %d is not the canonical encoding: %s", i, line)
		}
		if r.Cell != i/per || r.Trial != i%per {
			return fmt.Errorf("line %d is cell %d trial %d, want cell %d trial %d", i, r.Cell, r.Trial, i/per, i%per)
		}
		if r.Rounds < 1 || r.SparseRounds+r.TiledRounds+r.DenseRounds != r.Rounds {
			return fmt.Errorf("line %d: inconsistent round counts: %s", i, line)
		}
		folds[r.Cell].Add(float64(r.Rounds))
	}
	var st struct {
		State     string              `json:"state"`
		Aggregate *batch.Aggregate    `json:"aggregate"`
		CellAggs  []batch.CellSummary `json:"cell_aggregates"`
	}
	if err := json.Unmarshal(status, &st); err != nil {
		return fmt.Errorf("status: %v", err)
	}
	if st.State != string(batch.StateDone) {
		return fmt.Errorf("status state %q, want done", st.State)
	}
	aggs := []*batch.Aggregate{st.Aggregate}
	if job.Sweep != nil {
		if len(st.CellAggs) != len(cells) {
			return fmt.Errorf("status has %d cell aggregates, want %d", len(st.CellAggs), len(cells))
		}
		aggs = aggs[:0]
		for _, cs := range st.CellAggs {
			aggs = append(aggs, cs.Aggregate)
		}
	}
	for i, agg := range aggs {
		sum, err := folds[i].Summary()
		if err != nil {
			return err
		}
		want, _ := json.Marshal(batch.Aggregate{Completed: folds[i].N(), Rounds: sum})
		got, _ := json.Marshal(agg)
		if !bytes.Equal(want, got) {
			return fmt.Errorf("cell %d: status aggregate %s, fold of the streamed rounds %s", i, got, want)
		}
	}
	return nil
}

// libraryRun runs a job through the library path, Compile/CompileSweep
// plus Run, and returns the NDJSON the service must serve for it: one
// json.Marshal line per result.
func libraryRun(ctx context.Context, job Job, cache *batch.Cache) ([]byte, error) {
	var buf bytes.Buffer
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic("perfbench: result encode: " + err.Error())
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if job.Sweep != nil {
		sw, err := batch.CompileSweep(*job.Sweep, cache)
		if err != nil {
			return nil, err
		}
		_, err = sw.Run(ctx, func(r batch.CellResult) { emit(r) })
		return buf.Bytes(), err
	}
	cp, err := batch.Compile(*job.Campaign, cache)
	if err != nil {
		return nil, err
	}
	_, err = cp.Run(ctx, func(r batch.TrialResult) { emit(r) })
	return buf.Bytes(), err
}

// Golden aggregates that CI pins for the CI campaign and 2-cell sweep.
const (
	goldenMean0 = 26.703125
	goldenMean1 = 18.093749999999996
)

// checkGoldens runs the CI goldens through the stack and compares their
// status means with the pinned values.
func checkGoldens(ctx context.Context, c *client) error {
	campaign := Job{Index: -1, Reread: -1, Campaign: &batch.Spec{
		Graph: smallGraph, Process: "cobra", Branch: 2, Trials: 64, Seed: 1, Workers: 1,
	}}
	sweep := Job{Index: -1, Reread: -1, Sweep: &batch.SweepSpec{
		Graphs: []string{smallGraph}, Processes: []string{"cobra"}, Branches: []int{2, 3},
		Trials: 64, Seed: 1, Workers: 1, CellWorkers: 1,
	}}
	var means []float64
	for _, job := range []Job{campaign, sweep} {
		o := c.run(ctx, job, time.Now())
		if o.Err != nil {
			return fmt.Errorf("golden: %w", o.Err)
		}
		var st struct {
			Aggregate *batch.Aggregate    `json:"aggregate"`
			CellAggs  []batch.CellSummary `json:"cell_aggregates"`
		}
		if err := json.Unmarshal(o.Status, &st); err != nil {
			return fmt.Errorf("golden: %v", err)
		}
		if st.Aggregate != nil {
			means = append(means, st.Aggregate.Rounds.Mean)
		}
		for _, cs := range st.CellAggs {
			means = append(means, cs.Aggregate.Rounds.Mean)
		}
	}
	want := []float64{goldenMean0, goldenMean0, goldenMean1}
	if len(means) != len(want) {
		return fmt.Errorf("golden means %v, want %v", means, want)
	}
	for i := range want {
		if means[i] != want[i] {
			return fmt.Errorf("golden means %v, want %v", means, want)
		}
	}
	return nil
}
