package cobra

import (
	"bytes"
	"math"
	"testing"
)

func TestFacadeExactDuality(t *testing.T) {
	g := Cycle(7)
	for _, T := range []int{0, 2, 5} {
		lhs, err := ExactHitProbability(g, DefaultConfig(), []int{0}, 3, T)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := ExactMeetComplementProbability(g, DefaultConfig(), 3, []int{0}, T)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Fatalf("T=%d: exact duality %v vs %v", T, lhs, rhs)
		}
	}
}

func TestFacadeExactExpectations(t *testing.T) {
	g := Complete(4)
	e, err := ExactExpectedInfectionTime(g, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e < 1 || e > 10 {
		t.Fatalf("E[infec] = %v", e)
	}
	h, err := ExactExpectedHitTime(g, DefaultConfig(), []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.5 || h > 5 {
		t.Fatalf("E[hit] = %v", h)
	}
	// Oversized graph rejected.
	if _, err := ExactExpectedInfectionTime(Cycle(ExactMaxN+1), DefaultConfig(), 0); err == nil {
		t.Fatal("oversized accepted")
	}
}

func TestFacadeFullSpectrum(t *testing.T) {
	eig, err := FullSpectrum(Complete(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(eig) != 5 || math.Abs(eig[0]-1) > 1e-9 || math.Abs(eig[4]+0.25) > 1e-9 {
		t.Fatalf("K5 spectrum %v", eig)
	}
}

func TestFacadeStationaryAndMixing(t *testing.T) {
	g := Star(9)
	pi := StationaryDistribution(g)
	if math.Abs(pi[0]-0.5) > 1e-12 {
		t.Fatalf("hub mass %v", pi[0])
	}
	tm, err := WalkMixingTime(Complete(16), 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 10 {
		t.Fatalf("K16 mixing %d", tm)
	}
}

func TestFacadeSerialisation(t *testing.T) {
	g := Petersen()
	var buf bytes.Buffer
	if err := WriteEdgeList(g, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 10 || back.M() != 15 {
		t.Fatal("round trip failed")
	}
	buf.Reset()
	if err := WriteDOT(g, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty DOT")
	}
}

func TestFacadeExtraFamilies(t *testing.T) {
	if Spider(3, 4).N() != 13 {
		t.Fatal("spider wrong")
	}
	if DoubleCycle(8).M() != 16 {
		t.Fatal("double cycle wrong")
	}
	if Chord(9, 2).M() != 18 {
		t.Fatal("chord wrong")
	}
	g, err := RingExpander(50, 3)
	if err != nil || !g.IsConnected() {
		t.Fatal("ring expander wrong")
	}
}
