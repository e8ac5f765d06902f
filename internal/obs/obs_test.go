package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	g := r.Gauge("test_depth", "Depth.")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	cv.With("x").Inc()
	gv.With("x").Set(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_lat_seconds_bucket{le="0.1"} 2`,
		`test_lat_seconds_bucket{le="1"} 3`,
		`test_lat_seconds_bucket{le="10"} 4`,
		`test_lat_seconds_bucket{le="+Inf"} 5`,
		`test_lat_seconds_sum 102.65`,
		`test_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecAndFuncSeries(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_jobs_total", "Jobs.", "kind", "state")
	cv.With("campaign", "finished").Add(3)
	cv.With("sweep", "failed").Inc()
	gv := r.GaugeVec("test_queue_depth", "Depth.", "band")
	gv.With("0").Set(2)
	gv.With("5").Set(1)
	live := int64(0)
	r.GaugeFunc("test_live", "Live.", func() int64 { return live })
	r.CounterFunc("test_hits_total", "Hits.", func() int64 { return 42 })
	r.OnGather(func() { live = 9 })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_jobs_total Jobs.",
		"# TYPE test_jobs_total counter",
		`test_jobs_total{kind="campaign",state="finished"} 3`,
		`test_jobs_total{kind="sweep",state="failed"} 1`,
		`test_queue_depth{band="0"} 2`,
		`test_queue_depth{band="5"} 1`,
		"test_live 9",
		"test_hits_total 42",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Same labels return the same instrument.
	cv.With("campaign", "finished").Inc()
	if cv.With("campaign", "finished").Value() != 4 {
		t.Fatal("vec series not shared across With calls")
	}
}

func TestExpositionStableAndLints(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_a_total", "A.")
	h := r.Histogram("test_b_seconds", "B.", ExpBuckets(0.001, 4, 6))
	v := r.CounterVec("test_c_total", "C.", "k")
	c.Add(10)
	h.Observe(0.02)
	h.Observe(3)
	v.With("z").Inc()
	v.With("a").Inc()

	var b1, b2 strings.Builder
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("exposition not stable across scrapes")
	}
	// Series sorted by label value within a family.
	out := b1.String()
	if strings.Index(out, `test_c_total{k="a"}`) > strings.Index(out, `test_c_total{k="z"}`) {
		t.Fatal("vec series not sorted by label values")
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("self-exposition fails lint: %v", err)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "X.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	if err := Lint(resp.Body); err != nil {
		t.Fatalf("handler output fails lint: %v", err)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "C.")
	h := r.Histogram("test_conc_seconds", "H.", []float64{1, 2, 4})
	cv := r.CounterVec("test_conc_vec_total", "V.", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 5))
				cv.With(lbl).Inc()
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WriteText(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Fatalf("lint after concurrency: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("test_esc", "E.", "spec")
	v.With(`a"b\c` + "\n" + "d").Set(1)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_esc{spec="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Fatalf("escaped exposition fails lint: %v", err)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no help/type": "foo_total 1\n",
		"type before help": "# TYPE foo_total counter\n" +
			"# HELP foo_total x\nfoo_total 1\n",
		"bad type":         "# HELP foo x\n# TYPE foo bogus\nfoo 1\n",
		"bad value":        "# HELP foo x\n# TYPE foo gauge\nfoo abc\n",
		"duplicate sample": "# HELP foo x\n# TYPE foo gauge\nfoo 1\nfoo 2\n",
		"unquoted label":   "# HELP foo x\n# TYPE foo gauge\nfoo{a=b} 1\n",
		"hist missing inf": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"hist non-cumulative": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n",
		"hist count mismatch": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 4\n",
	}
	for name, in := range cases {
		if err := Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted malformed input", name)
		}
	}
	good := "# HELP ok_total fine\n# TYPE ok_total counter\nok_total 3\n"
	if err := Lint(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected good input: %v", err)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(exp[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, exp[i], want[i])
		}
	}
}
