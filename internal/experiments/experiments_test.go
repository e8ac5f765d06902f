package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// Quick-scale end-to-end runs of every experiment. Beyond "runs without
// error", these assert the headline claim of each table where the claim
// is exact (duality agreement, martingale floor, candidate-set bound).

func quickParams() Params { return Params{Seed: 2024, Scale: Quick} }

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 18 {
		t.Fatalf("registry has %d entries", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Name == "" || e.Run == nil {
			t.Fatalf("malformed registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"E1", "E4", "E10", "E12", "E15", "E16"} {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestE1GeneralGraphs(t *testing.T) {
	tb, err := E1GeneralGraphs(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9*2 {
		t.Fatalf("E1 rows = %d", len(tb.Rows))
	}
	// Shape check: every ratio must be well below a generous constant.
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("unparseable ratio %q", row[len(row)-1])
		}
		if ratio > 3 {
			t.Fatalf("E1 %s: cover/bound ratio %.3f blows past O(1)", row[0], ratio)
		}
	}
}

func TestE2RegularGraphs(t *testing.T) {
	tb, err := E2RegularGraphs(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("E2 empty")
	}
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 3 {
			t.Fatalf("E2 %s: ratio %.3f not O(1)", row[0], ratio)
		}
	}
}

func TestE3Hypercube(t *testing.T) {
	tb, err := E3Hypercube(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("E3 rows = %d", len(tb.Rows))
	}
	// measured/ln n should be a modest constant (single digits).
	for _, row := range tb.Rows {
		r, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0.3 || r > 20 {
			t.Fatalf("E3 d=%s: measured/ln n = %.2f implausible", row[0], r)
		}
	}
}

func TestE4DualityExactAgreement(t *testing.T) {
	tb, err := E4Duality(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		agree := row[3]
		parts := strings.Split(agree, "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Fatalf("E4 %s %s T=%s: pathwise agreement %s is not total", row[0], row[1], row[2], agree)
		}
		z, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if z > 5 {
			t.Fatalf("E4 %s: Monte-Carlo z = %.2f", row[0], z)
		}
	}
}

func TestE5BIPS(t *testing.T) {
	tb, err := E5BIPS(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 3 {
			t.Fatalf("E5 %s: ratio %.3f not O(1)", row[0], ratio)
		}
	}
}

func TestE6Fractional(t *testing.T) {
	tb, err := E6Fractional(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("E6 rows = %d", len(tb.Rows))
	}
	// Within each graph, cover must be non-decreasing as rho shrinks, and
	// cover*rho^2 must not explode (the 1/rho^2 envelope).
	for g := 0; g < 2; g++ {
		var prev float64
		for i := 0; i < 4; i++ {
			row := tb.Rows[g*4+i]
			cover, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && cover < prev*0.8 {
				t.Fatalf("E6 %s: cover decreased when rho shrank (%.1f -> %.1f)", row[0], prev, cover)
			}
			prev = cover
			env, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatal(err)
			}
			first, _ := strconv.ParseFloat(tb.Rows[g*4][4], 64)
			if env > 4*first+10 {
				t.Fatalf("E6 %s: rho^2-normalised cover %.1f escapes envelope (base %.1f)", row[0], env, first)
			}
		}
	}
}

func TestE7Expanders(t *testing.T) {
	tb, err := E7Expanders(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		r2, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if r2 < 0.5 {
			t.Fatalf("E7 %s: semi-log fit R^2 = %.3f (cover not logarithmic?)", row[0], r2)
		}
	}
}

func TestE8Grids(t *testing.T) {
	tb, err := E8Grids(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("E8 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		got, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if got < want*0.55 || got > want*1.8 {
			t.Fatalf("E8 D=%s: exponent %.3f vs 1/D=%.3f", row[0], got, want)
		}
		covDiam, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if covDiam < 1 {
			t.Fatalf("E8 D=%s: cover below diameter lower bound", row[0])
		}
	}
}

func TestE9Growth(t *testing.T) {
	tb, err := E9Growth(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("E9 produced no populated bins")
	}
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 4.1 lower-bounds an expectation; empirical bin means may
		// dip slightly below 1 from noise, not grossly.
		if ratio < 0.93 {
			t.Fatalf("E9 %s %s: growth ratio %.4f violates Lemma 4.1 beyond noise", row[0], row[2], ratio)
		}
	}
}

func TestE10MartingaleFloorHolds(t *testing.T) {
	tb, err := E10Martingale(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("E10 %s %s: %s floor violations (eq. 18 broken)", row[0], row[1], row[len(row)-1])
		}
	}
}

func TestE11CandidateBoundHolds(t *testing.T) {
	tb, err := E11Candidates(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		minRatio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if minRatio < 1 {
			t.Fatalf("E11 %s: min |C|/bound = %.3f < 1 (Corollary 5.2 broken)", row[0], minRatio)
		}
	}
}

func TestE12Baselines(t *testing.T) {
	tb, err := E12Baselines(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("E12 rows = %d", len(tb.Rows))
	}
	// COBRA rounds must beat the single random walk's steps everywhere.
	for _, row := range tb.Rows {
		cobraR, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if cobraR >= rw {
			t.Fatalf("E12 %s: COBRA %.1f rounds not faster than RW %.0f steps", row[0], cobraR, rw)
		}
	}
}

func TestAblations(t *testing.T) {
	p := quickParams()
	a1, err := AblationReplacement(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range a1.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		// With-replacement wastes branches, so it is never much faster.
		if ratio < 0.85 {
			t.Fatalf("A1 %s: with-replacement unexpectedly faster (ratio %.3f)", row[0], ratio)
		}
	}
	a2, err := AblationLazy(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range a2.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 1.2 || ratio > 4 {
			t.Fatalf("A2 %s: lazy/plain = %.2f not ~2", row[0], ratio)
		}
	}
}

func TestTablesRender(t *testing.T) {
	tb, err := E3Hypercube(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "ln^3") {
		t.Fatalf("rendered table missing content:\n%s", out)
	}
}

func TestE13Conjecture(t *testing.T) {
	tb, err := E13Conjecture(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11*2 {
		t.Fatalf("E13 rows = %d", len(tb.Rows))
	}
	// The conjecture scan: normalised cover must stay below a generous
	// constant for every family at every size.
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 2 {
			t.Fatalf("E13 %s n=%s: cover/(n ln n) = %.3f — conjecture counterexample?!", row[0], row[1], ratio)
		}
	}
}

func TestE15ScaleFree(t *testing.T) {
	tb, err := E15ScaleFree(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2*2 {
		t.Fatalf("E15 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		share, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if share <= 0 || share >= 1 {
			t.Fatalf("E15 %s: dmax2-share %v outside (0,1)", row[0], row[4])
		}
		ratio, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 3 {
			t.Fatalf("E15 %s: cover/bound ratio %.3f blows past O(1)", row[0], ratio)
		}
	}
}

func TestE16SmallWorld(t *testing.T) {
	tb, err := E16SmallWorld(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("E16 rows = %d", len(tb.Rows))
	}
	covers := make([]float64, len(tb.Rows))
	gaps := make([]float64, len(tb.Rows))
	for i, row := range tb.Rows {
		var err error
		if gaps[i], err = strconv.ParseFloat(row[4], 64); err != nil {
			t.Fatal(err)
		}
		if covers[i], err = strconv.ParseFloat(row[5], 64); err != nil {
			t.Fatal(err)
		}
	}
	// The small-world effect: more rewiring opens the gap and the cover
	// time must not grow (generous slack for trial noise).
	last := len(tb.Rows) - 1
	if gaps[last] <= gaps[0] {
		t.Fatalf("E16: gap did not open with beta: %v vs %v", gaps[last], gaps[0])
	}
	if covers[last] > covers[0]*1.25 {
		t.Fatalf("E16: cover time grew across the transition: %v vs %v", covers[last], covers[0])
	}
}

func TestE14Concentration(t *testing.T) {
	tb, err := E14Concentration(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("E14 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		q99, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		max, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatal(err)
		}
		// W.h.p. theorems need thin tails: even the max over hundreds of
		// trials must stay within a small constant of the mean.
		if q99 > 3 || max > 5 {
			t.Fatalf("E14 %s: heavy tail q99/mean=%.2f max/mean=%.2f", row[0], q99, max)
		}
	}
}
